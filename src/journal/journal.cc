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
// completion needs.
struct Journal::ChainLink {
  std::string batch;            // Drained pending_ bytes; Slice target for the write.
  size_t count = 0;             // Records in the batch.
  uint64_t batch_last = 0;      // Highest sequence in the batch.
  uint64_t pos = 0;             // write_pos_ at drain time.
  int attempts = 1;             // Submissions so far (retry accounting).
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

std::shared_ptr<Journal::ChainLink> Journal::PrepareLinkLocked() {
  auto link = std::make_shared<ChainLink>();
  link->batch.swap(pending_);
  link->count = pending_count_;
  pending_count_ = 0;
  link->batch_last = next_seq_ - 1;
  link->pos = write_pos_;
  inflight_bytes_ = link->batch.size();
  inflight_count_ = link->count;
  commit_in_progress_ = true;
  link->start = std::chrono::steady_clock::now();
  return link;
}

void Journal::SubmitLink(std::shared_ptr<ChainLink> link) {
  // The write's completion submits the sync, the sync's completion advances the
  // watermark. Both callbacks run on engine completion threads and take only mu_ (a
  // leaf lock on that path).
  io::IoRequest write;
  write.op = io::IoOp::kWrite;
  write.offset = region_offset_ + link->pos;
  write.data = Slice(link->batch);
  write.on_complete = [this, link](Status ws) {
    if (ws.ok()) {
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
    FinishLink(std::move(link), std::move(submitted));
  }
}

void Journal::FinishLink(std::shared_ptr<ChainLink> link, Status s) {
  std::vector<std::function<void(Status)>> fire;
  {
    std::lock_guard<std::mutex> lock(mu_);
    inflight_bytes_ = 0;
    inflight_count_ = 0;
    if (s.ok()) {
      write_pos_ += link->batch.size();
      committed_seq_ = link->batch_last;
      stats::Add(stats::Counter::kJournalCommits);
      stats::Add(stats::Counter::kJournalRecords, link->count);
      stats::Add(stats::Counter::kJournalBytes, link->batch.size());
      auto split = std::partition(waiters_.begin(), waiters_.end(),
                                  [&](const auto& w) { return w.first > committed_seq_; });
      for (auto it = split; it != waiters_.end(); ++it) {
        fire.push_back(std::move(it->second));
      }
      waiters_.erase(split, waiters_.end());
    } else {
      // Failed batches stay pending, prepended ahead of anything appended while the
      // link was in flight (records must stay in sequence order). Every waiter learns
      // this link's failure; the next commit rewrites the records.
      link->batch.append(pending_);
      pending_.swap(link->batch);
      pending_count_ += link->count;
      for (auto& w : waiters_) fire.push_back(std::move(w.second));
      waiters_.clear();
    }
  }
  metrics::Record(metrics::Hist::kJournalCommit,
                  static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                            std::chrono::steady_clock::now() - link->start)
                                            .count()));
  for (auto& f : fire) f(s);
  // The chain moves on only now, with the covered callers released: uncovered waiters
  // (and any that registered meanwhile) ride the next link, drained from this thread.
  // With none left the chain idles, and a CommitThrough caller that waited out this
  // link drains the next one from its own thread — after its wake-up, so usually with
  // the released callers' next records on board.
  std::shared_ptr<ChainLink> next;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (waiters_.empty()) {
      commit_in_progress_ = false;
    } else {
      next = PrepareLinkLocked();
    }
    commit_cv_.notify_all();
  }
  if (next) SubmitLink(std::move(next));
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
      if (commit_in_progress_) {
        return;  // The in-flight link (or its successor) resolves us.
      }
      link = PrepareLinkLocked();
    }
  }
  if (link) {
    SubmitLink(std::move(link));
  } else {
    done(Status::Ok());  // Already covered.
  }
}

Status Journal::CommitThrough(uint64_t sequence) {
  {
    // Wait out an in-flight link rather than pile onto the one after it: the link
    // usually covers this caller, and if not, the caller drains the next one itself.
    std::unique_lock<std::mutex> lock(mu_);
    uint64_t target = std::min(sequence, next_seq_ - 1);
    commit_cv_.wait(lock, [&] { return committed_seq_ >= target || !commit_in_progress_; });
    if (committed_seq_ >= target) {
      return Status::Ok();
    }
  }
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
  // An in-flight link still owns [write_pos_, +inflight_bytes_); wait it out so the
  // head zeroes below cannot be overwritten by its batch. No waiter outlives it.
  commit_cv_.wait(lock, [&] { return !commit_in_progress_; });
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
  commit_cv_.wait(lock, [&] { return !commit_in_progress_; });
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
