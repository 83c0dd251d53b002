// Write-ahead log for the hFAD OSD (§3.3: "the OSD may be transactional").
//
// The journal occupies a fixed region of the device, written directly (never through the
// pager). Records are appended in memory and made durable in batches (group commit): one
// contiguous device write plus one Sync covers every record appended since the previous
// Commit. Layout of one record:
//
//   [u32 masked CRC32C][u32 payload length][u64 sequence][payload bytes]
//
// The CRC covers (length, sequence, payload), is masked as in crc32.h, and a record of all
// zeroes marks the end of the log. Sequences increase by exactly one per record.
//
// Commits run as a pipeline of chain links on the journal's own io::IoEngine (see
// docs/CONCURRENCY.md). A caller whose target is not yet durable registers as a waiter;
// a link drains the pending buffer and submits its write, and the write's completion
// submits the link's sync. Up to io::IoEngine::kWorkers links are in flight: the next
// link drains as soon as the previous link's write has landed, while that link's sync
// may still run, so a record appended during a sync waits for one link of its own
// instead of for the sync and then a link. Writes go one at a time, in record order, so
// a link's sync covers every earlier link's bytes and a torn log is always a prefix.
// Links retire strictly in order: the committed_seq_ watermark advances only across a
// contiguous prefix of finished links, and each retirement fires every waiter it
// covers. No thread parks inside Sync() and the journal lock is never held across
// device IO, so Append() never waits out an in-flight fsync. Blocking
// Commit()/CommitThrough() are CommitAsync() plus a wait.
//
// The log is linear, not a ring: when the region fills, Append returns NoSpace and the
// caller must Checkpoint() — i.e. durably flush the state the journal protects, then reset
// the log. Combined with a no-steal pager this gives the classic no-steal/force-on-
// checkpoint discipline: on-disk state is always exactly the last checkpoint, and crash
// recovery replays the journal suffix on top of it.
//
// Recovery scans from the region start, stopping at the first corrupt, torn, or absent
// record. A crash during Commit() therefore durably preserves some *prefix* of the batch:
// every fully-written record survives, the torn one is discarded by its CRC. Callers must
// treat each record as one complete, independently-applicable operation (the OSD does);
// callers needing all-or-nothing batches should frame them inside a single record.
#ifndef HFAD_SRC_JOURNAL_JOURNAL_H_
#define HFAD_SRC_JOURNAL_JOURNAL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/common/retry.h"
#include "src/common/slice.h"
#include "src/common/status.h"
#include "src/io/io_engine.h"
#include "src/storage/block_device.h"

namespace hfad {
namespace journal {

// Fixed per-record framing overhead (CRC + length + sequence).
constexpr uint64_t kRecordHeaderSize = 16;

class Journal {
 public:
  // The journal owns [region_offset, region_offset + region_size) of `device` and
  // commits through its own IoEngine on it. A fresh journal starts empty with
  // first_sequence as its next sequence number; call Recover() instead when opening an
  // existing volume.
  Journal(BlockDevice* device, uint64_t region_offset, uint64_t region_size,
          uint64_t first_sequence = 1);

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  // Shuts the engine down first, so every in-flight chain link completes (or aborts)
  // into still-live journal state.
  ~Journal();

  // Retry transiently failing IO. Chain links resubmit immediately from the
  // completion thread — a completion thread must never sleep — so only the policy's
  // attempt count applies there; Reset and Recover retry in place with its backoff.
  // Call before the journal is shared across threads.
  void SetRetryPolicy(const RetryPolicy& retry);

  // Buffer one record. It is durable only after a Commit() covers its sequence. Returns
  // the record's sequence number, or NoSpace when the region cannot hold it (checkpoint,
  // then retry). Holds the journal lock only to reserve + copy: an in-flight commit's
  // device Write/Sync never blocks an append.
  Result<uint64_t> Append(Slice payload);

  // Make every record appended before this call durable: CommitThrough(<highest
  // appended>).
  Status Commit();

  // Block until the watermark covers `sequence`. Sequences from a previous log
  // generation (at or below the last Reset) count as covered. CommitAsync plus a wait:
  // returns the outcome of the link that resolved it. If that link (or an older one
  // still unretired) fails, every uncovered waiter gets its error and the records stay
  // pending for the next commit.
  Status CommitThrough(uint64_t sequence);

  // Non-blocking CommitThrough: `done` fires with the commit outcome once the
  // watermark covers `sequence` (immediately, from this call, when it already does),
  // or with the error of the chain link that failed while it waited. Requires no
  // dedicated thread per caller — completions ride the engine's completion thread, so
  // `done` must follow the completion-thread rules in docs/CONCURRENCY.md (leaf locks
  // only, never block on another completion).
  void CommitAsync(uint64_t sequence, std::function<void(Status)> done);

  // The engine the commit chain runs on (never null). The OSD reports its gauges.
  io::IoEngine* io_engine() const { return engine_.get(); }

  // Number of records appended but not yet durable (pending buffer + in-flight links).
  size_t pending_records() const;

  // Highest sequence number known durable (the group-commit watermark).
  uint64_t committed_sequence() const;

  // Bytes of region left for new records (committed + in-flight + pending accounted).
  uint64_t SpaceRemaining() const;

  // Fraction of the region consumed (same accounting as SpaceRemaining): the OSD kicks
  // its threshold checkpoint off this.
  double Occupancy() const;

  // Logically empty the log after the protected state has been durably checkpointed.
  // Sequence numbering continues; the head of the region is zeroed so recovery stops
  // there. Waits until no link is in flight; pending records are discarded (the
  // checkpoint made them durable by other means).
  Status Reset();

  // Scan the region from the start, calling fn(sequence, payload) for each intact record,
  // in order. Stops at the first invalid record. Leaves the journal positioned to append
  // after the last valid record and returns how many records were recovered.
  Result<uint64_t> Recover(const std::function<void(uint64_t sequence, Slice payload)>& fn);

  // Sequence number the next Append will receive.
  uint64_t next_sequence() const;

  // Total committed bytes currently in the region (test/bench support).
  uint64_t committed_bytes() const;

 private:
  // One link of the commit chain: the batch drained from pending_, alive (via
  // shared_ptr) until its sync completion lands — the engine requires request buffers
  // to outlive their completions.
  struct ChainLink;

  // Drain pending_ into a new chain link when a waiter needs records no link holds,
  // fewer than io::IoEngine::kWorkers links are in flight, the newest link's write has
  // landed, and the oldest unretired link has not failed; null otherwise. Caller holds mu_ and must
  // call SubmitLink with mu_ released.
  std::shared_ptr<ChainLink> DrainLocked();

  // Submit the link's write; its completion drains the next link (DrainLocked) and
  // then submits this link's sync; the sync's completion calls FinishLink. Called with
  // mu_ RELEASED (engine locks are leaves).
  void SubmitLink(std::shared_ptr<ChainLink> link);

  // Chain epilogue, called from a completion thread once the link's sync (or a
  // failure) completes: retire the finished prefix of links_, or, when the oldest link
  // failed and every link has landed, return all their batches to pending_; then fire
  // resolved waiters and drain the next link. Takes mu_; fires callbacks only after
  // releasing it.
  void FinishLink(const std::shared_ptr<ChainLink>& link, Status s);

  BlockDevice* const device_;
  const uint64_t region_offset_;
  const uint64_t region_size_;

  mutable std::mutex mu_;
  // Signalled when links_ empties, so Reset/Recover can wait until no link owns part
  // of the region.
  std::condition_variable commit_cv_;

  uint64_t next_seq_;
  uint64_t committed_seq_;       // Highest durable sequence (== next_seq_-1 when clean).
  uint64_t write_pos_ = 0;       // Byte offset within the region of the next commit.
  uint64_t inflight_bytes_ = 0;  // Bytes drained by the links in flight (space-reserved).
  std::string pending_;          // Encoded records awaiting a commit batch.
  size_t pending_count_ = 0;
  size_t inflight_count_ = 0;    // Records in the links in flight.

  // Unretired chain links, oldest first, at most io::IoEngine::kWorkers. They hold
  // consecutive batches at [write_pos_, +inflight_bytes_).
  std::deque<std::shared_ptr<ChainLink>> links_;

  // Transient-failure policy for commit IO (write, sync, Reset's head zeroing).
  RetryPolicy retry_ = RetryPolicy::None();

  // Callers whose target the watermark does not yet cover, blocking and async alike.
  // Invariant: non-empty only while links_ is, so Reset/Recover, which wait for links_
  // to empty, never strand a waiter.
  std::vector<std::pair<uint64_t, std::function<void(Status)>>> waiters_;

  std::unique_ptr<io::IoEngine> engine_;
};

}  // namespace journal
}  // namespace hfad

#endif  // HFAD_SRC_JOURNAL_JOURNAL_H_
