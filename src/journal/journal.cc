#include "src/journal/journal.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <utility>

#include "src/common/coding.h"
#include "src/common/crc32.h"
#include "src/common/metrics.h"
#include "src/common/stats.h"

namespace hfad {
namespace journal {

namespace {

// CRC over (length, sequence, payload) — everything after the CRC field itself.
uint32_t RecordCrc(uint32_t length, uint64_t sequence, Slice payload) {
  uint8_t hdr[12];
  EncodeFixed32(hdr, length);
  EncodeFixed64(hdr + 4, sequence);
  uint32_t crc = Crc32c(Slice(hdr, sizeof(hdr)));
  return Crc32cExtend(crc, payload);
}

}  // namespace

// One link of the commit chain. Owns the drained batch bytes so the engine's
// buffer-lifetime rule holds without copying, and carries the bookkeeping its
// completions need.
struct Journal::ChainLink {
  std::string batch;            // Drained pending_ bytes; Slice target for the write.
  size_t count = 0;             // Records in the batch.
  uint64_t batch_last = 0;      // Highest sequence in the batch.
  uint64_t pos = 0;             // Region offset of the batch.
  int attempts = 1;             // Submissions so far (retry accounting).
  bool written = false;         // The write has landed (guarded by mu_).
  bool finished = false;        // The sync, or a failure, has completed (guarded by mu_).
  Status status;                // The outcome once finished (guarded by mu_).
  std::chrono::steady_clock::time_point start;
};

Journal::Journal(BlockDevice* device, uint64_t region_offset, uint64_t region_size,
                 uint64_t first_sequence)
    : device_(device),
      region_offset_(region_offset),
      region_size_(region_size),
      next_seq_(first_sequence),
      committed_seq_(first_sequence - 1),
      engine_(std::make_unique<io::IoEngine>(device)) {}

Journal::~Journal() {
  // Every accepted request completes before Shutdown returns, so no completion can
  // touch this object afterwards.
  engine_->Shutdown();
}

void Journal::SetRetryPolicy(const RetryPolicy& retry) {
  std::lock_guard<std::mutex> lock(mu_);
  retry_ = retry;
}

Result<uint64_t> Journal::Append(Slice payload) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t need = kRecordHeaderSize + payload.size();
  // Keep one trailing header's worth of zeroes so recovery always sees a terminator.
  // The in-flight batch still occupies [write_pos_, +inflight_bytes_) until its link
  // either advances write_pos_ or returns the records to pending_.
  if (write_pos_ + inflight_bytes_ + pending_.size() + need + kRecordHeaderSize >
      region_size_) {
    return Status::NoSpace("journal region full (" + std::to_string(region_size_) +
                           " bytes); checkpoint required");
  }
  uint64_t seq = next_seq_++;
  uint8_t hdr[16];
  uint32_t crc = RecordCrc(static_cast<uint32_t>(payload.size()), seq, payload);
  EncodeFixed32(hdr, MaskCrc(crc));
  EncodeFixed32(hdr + 4, static_cast<uint32_t>(payload.size()));
  EncodeFixed64(hdr + 8, seq);
  pending_.append(reinterpret_cast<const char*>(hdr), sizeof(hdr));
  pending_.append(payload.data(), payload.size());
  pending_count_++;
  return seq;
}

std::shared_ptr<Journal::ChainLink> Journal::DrainLocked() {
  // One write in flight keeps device writes in record order, so a torn log is a
  // prefix; a failed link stops the chain until FinishLink has taken every link back.
  if (links_.size() >= static_cast<size_t>(io::IoEngine::kWorkers)) {
    return nullptr;
  }
  uint64_t drained = committed_seq_;
  if (!links_.empty()) {
    if (!links_.back()->written || links_.front()->finished) {
      return nullptr;  // A finished link still in links_ has failed.
    }
    drained = links_.back()->batch_last;
  }
  // Only a waiter past every drained record needs a link (its records are pending).
  if (std::none_of(waiters_.begin(), waiters_.end(),
                   [&](const auto& w) { return w.first > drained; })) {
    return nullptr;
  }
  auto link = std::make_shared<ChainLink>();
  link->batch.swap(pending_);
  link->count = pending_count_;
  pending_count_ = 0;
  link->batch_last = next_seq_ - 1;
  link->pos = write_pos_ + inflight_bytes_;
  inflight_bytes_ += link->batch.size();
  inflight_count_ += link->count;
  link->start = std::chrono::steady_clock::now();
  links_.push_back(link);
  return link;
}

void Journal::SubmitLink(std::shared_ptr<ChainLink> link) {
  // The write's completion drains the next link and submits this link's sync; the
  // sync's completion retires it. Both callbacks run on engine completion threads and
  // take only mu_ (a leaf lock on that path).
  io::IoRequest write;
  write.op = io::IoOp::kWrite;
  write.offset = region_offset_ + link->pos;
  write.data = Slice(link->batch);
  write.on_complete = [this, link](Status ws) {
    if (ws.ok()) {
      // The next link's write may start now and overlap this link's sync, which
      // covers only writes that landed before it.
      std::shared_ptr<ChainLink> next;
      {
        std::lock_guard<std::mutex> lock(mu_);
        link->written = true;
        next = DrainLocked();
      }
      if (next) SubmitLink(std::move(next));
      io::IoRequest sync;
      sync.op = io::IoOp::kSync;
      sync.on_complete = [this, link](Status ss) {
        if (!ss.ok() && retry_.ShouldRetry(ss, link->attempts)) {
          link->attempts++;
          SubmitLink(link);
          return;
        }
        FinishLink(link, std::move(ss));
      };
      ws = engine_->Submit(std::move(sync));
      if (ws.ok()) return;
    } else if (retry_.ShouldRetry(ws, link->attempts)) {
      // Transient failure: resubmit the whole link immediately (completion threads
      // never sleep; rewriting the same batch bytes is idempotent).
      link->attempts++;
      SubmitLink(link);
      return;
    }
    FinishLink(link, std::move(ws));
  };
  Status submitted = engine_->Submit(std::move(write));
  if (!submitted.ok()) {
    FinishLink(link, std::move(submitted));
  }
}

void Journal::FinishLink(const std::shared_ptr<ChainLink>& link, Status s) {
  std::vector<std::function<void(Status)>> covered;
  std::vector<std::function<void(Status)>> failed;
  Status error;
  std::shared_ptr<ChainLink> next;
  {
    std::lock_guard<std::mutex> lock(mu_);
    link->finished = true;
    link->status = std::move(s);
    // Retire the finished prefix only, so acknowledgement order is record order: a
    // link that lands before an older one waits for it.
    const auto now = std::chrono::steady_clock::now();
    while (!links_.empty() && links_.front()->finished && links_.front()->status.ok()) {
      const ChainLink& done = *links_.front();
      write_pos_ += done.batch.size();
      inflight_bytes_ -= done.batch.size();
      inflight_count_ -= done.count;
      committed_seq_ = done.batch_last;
      stats::Add(stats::Counter::kJournalCommits);
      stats::Add(stats::Counter::kJournalRecords, done.count);
      stats::Add(stats::Counter::kJournalBytes, done.batch.size());
      metrics::Record(metrics::Hist::kJournalCommit,
                      static_cast<uint64_t>(
                          std::chrono::duration_cast<std::chrono::nanoseconds>(now - done.start)
                              .count()));
      links_.pop_front();
    }
    auto split = std::partition(waiters_.begin(), waiters_.end(),
                                [&](const auto& w) { return w.first > committed_seq_; });
    for (auto it = split; it != waiters_.end(); ++it) {
      covered.push_back(std::move(it->second));
    }
    waiters_.erase(split, waiters_.end());
    if (!links_.empty() && links_.front()->finished &&
        std::all_of(links_.begin(), links_.end(), [](const auto& l) { return l->finished; })) {
      // The oldest link failed and every link has landed. Their batches go back to
      // pending_ in sequence order, ahead of anything appended meanwhile, and every
      // waiter left learns the failure; the next commit rewrites the records.
      error = links_.front()->status;
      std::string restored;
      for (const auto& l : links_) {
        restored.append(l->batch);
        pending_count_ += l->count;
      }
      restored.append(pending_);
      pending_.swap(restored);
      inflight_bytes_ = 0;
      inflight_count_ = 0;
      links_.clear();
      for (auto& w : waiters_) failed.push_back(std::move(w.second));
      waiters_.clear();
    } else {
      next = DrainLocked();
    }
    if (links_.empty()) {
      commit_cv_.notify_all();
    }
  }
  if (next) SubmitLink(std::move(next));
  for (auto& f : covered) f(Status::Ok());
  for (auto& f : failed) f(error);
}

void Journal::CommitAsync(uint64_t sequence, std::function<void(Status)> done) {
  std::shared_ptr<ChainLink> link;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Clamp to what has actually been appended: sequences from before a Reset() are
    // durable by checkpoint, and asking beyond next_seq_-1 is a caller bug we degrade
    // to "everything appended so far".
    uint64_t target = std::min(sequence, next_seq_ - 1);
    if (committed_seq_ < target) {
      waiters_.emplace_back(target, std::move(done));
      link = DrainLocked();
      if (!link) {
        return;  // A link in flight, or one drained after it, resolves us.
      }
    }
  }
  if (link) {
    SubmitLink(std::move(link));
  } else {
    done(Status::Ok());  // Already covered.
  }
}

Status Journal::CommitThrough(uint64_t sequence) {
  auto done = std::make_shared<std::promise<Status>>();
  std::future<Status> result = done->get_future();
  CommitAsync(sequence, [done](Status s) { done->set_value(std::move(s)); });
  return result.get();
}

Status Journal::Commit() {
  // The target is re-read under the lock inside CommitAsync; max() simply means
  // "everything appended before the call".
  return CommitThrough(~uint64_t{0});
}

size_t Journal::pending_records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_count_ + inflight_count_;
}

uint64_t Journal::committed_sequence() const {
  std::lock_guard<std::mutex> lock(mu_);
  return committed_seq_;
}

uint64_t Journal::SpaceRemaining() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t used =
      write_pos_ + inflight_bytes_ + pending_.size() + kRecordHeaderSize;  // + terminator.
  return used >= region_size_ ? 0 : region_size_ - used;
}

double Journal::Occupancy() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t used = write_pos_ + inflight_bytes_ + pending_.size() + kRecordHeaderSize;
  if (region_size_ == 0) {
    return 1.0;
  }
  return used >= region_size_ ? 1.0
                              : static_cast<double>(used) / static_cast<double>(region_size_);
}

Status Journal::Reset() {
  std::unique_lock<std::mutex> lock(mu_);
  // Links in flight still own [write_pos_, +inflight_bytes_); wait them out so the
  // head zeroes below cannot be overwritten by a batch. No waiter outlives them.
  commit_cv_.wait(lock, [&] { return links_.empty(); });
  pending_.clear();
  pending_count_ = 0;
  write_pos_ = 0;
  committed_seq_ = next_seq_ - 1;  // Everything before the reset is checkpoint-durable.
  // Zero one header so a recovery scan terminates immediately.
  std::string zeroes(kRecordHeaderSize, '\0');
  return retry_.RunWithRetry([&] {
    Status ws = device_->Write(region_offset_, Slice(zeroes));
    if (ws.ok()) {
      ws = device_->Sync();
    }
    return ws;
  });
}

Result<uint64_t> Journal::Recover(
    const std::function<void(uint64_t sequence, Slice payload)>& fn) {
  std::unique_lock<std::mutex> lock(mu_);
  commit_cv_.wait(lock, [&] { return links_.empty(); });
  pending_.clear();
  pending_count_ = 0;
  uint64_t pos = 0;
  uint64_t recovered = 0;
  bool have_prev_seq = false;
  uint64_t prev_seq = 0;
  while (pos + kRecordHeaderSize <= region_size_) {
    std::string hdr;
    HFAD_RETURN_IF_ERROR(retry_.RunWithRetry(
        [&] { return device_->Read(region_offset_ + pos, kRecordHeaderSize, &hdr); }));
    const uint8_t* h = reinterpret_cast<const uint8_t*>(hdr.data());
    uint32_t masked = DecodeFixed32(h);
    uint32_t length = DecodeFixed32(h + 4);
    uint64_t seq = DecodeFixed64(h + 8);
    if (masked == 0 && length == 0 && seq == 0) {
      break;  // Clean end of log.
    }
    if (pos + kRecordHeaderSize + length > region_size_) {
      break;  // Length field runs off the region: torn header.
    }
    std::string payload;
    HFAD_RETURN_IF_ERROR(retry_.RunWithRetry([&] {
      return device_->Read(region_offset_ + pos + kRecordHeaderSize, length, &payload);
    }));
    if (UnmaskCrc(masked) != RecordCrc(length, seq, Slice(payload))) {
      break;  // Torn or corrupt record: the log ends here.
    }
    if (have_prev_seq && seq != prev_seq + 1) {
      break;  // Stale record from a previous log generation.
    }
    fn(seq, Slice(payload));
    recovered++;
    prev_seq = seq;
    have_prev_seq = true;
    pos += kRecordHeaderSize + length;
  }
  write_pos_ = pos;
  if (have_prev_seq) {
    next_seq_ = prev_seq + 1;
  }
  committed_seq_ = next_seq_ - 1;  // Everything on the device is durable by definition.
  return recovered;
}

uint64_t Journal::next_sequence() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_;
}

uint64_t Journal::committed_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return write_pos_;
}

}  // namespace journal
}  // namespace hfad
