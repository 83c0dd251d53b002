// Background application of tag mutations (§3.4: indexing is a cache over naming state
// and need not be synchronous with mutation).
//
// In lazy mode the FileSystem journals a tag intent, updates the reverse map inline
// (naming state stays authoritative), enqueues the forward posting-store update here,
// and returns. One worker thread drains the FIFO queue into the posting btrees in
// sorted bulk batches (IndexStore::ApplyBatch -> Btree::BulkLoad). Visibility is
// explicit: strict readers wait on per-tag applied-sequence horizons (the journal's
// committed_seq_ idiom, one watermark pair per tag), relaxed readers take the postings
// as they are.
//
// Crash safety is owned by the layers around this class: intents are journaled before
// they are enqueued (Osd::AppendForeign with the enqueue callback under the same volume
// lock hold), checkpoints persist SnapshotUnapplied() into the volume
// ("osd/pending-foreign"), and recovery Seed()s the rebuilt queue.
//
// Lock order (docs/CONCURRENCY.md): mu_ here is a leaf lock on the enqueue side —
// callers hold tag shard locks (never the volume lock or a journal credit) when they
// block in ReserveSlots. The worker acquires store locks / the volume lock only while
// NOT holding mu_.
//
// The worker applies each batch in chunks, under one journal credit per chunk on the
// volume the stores live on: a chunk of n posting mutations plus its root sync dirties
// at most what n + 1 btree Puts can, and the credit is never held while waiting on
// anything but the store locks.
#ifndef HFAD_SRC_CORE_LAZY_TAG_INDEXER_H_
#define HFAD_SRC_CORE_LAZY_TAG_INDEXER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/index/index_store.h"

namespace hfad {
namespace core {

class LazyTagIndexer {
 public:
  // One tag mutation: here a deferred posting-store update; in FileSystem also the
  // staged op and its journal sub-record.
  struct Op {
    bool add = true;  // true = add association, false = remove.
    index::ObjectId oid = 0;
    index::TagValue name;
  };

  // `indexes` and `volume` (the volume the stores live on, where application credits
  // are taken) must outlive this object. `queue_capacity` bounds acknowledged-but-
  // unapplied intents (mutators block in ReserveSlots beyond it).
  LazyTagIndexer(index::IndexCollection* indexes, osd::Osd* volume, size_t queue_capacity);
  ~LazyTagIndexer();

  LazyTagIndexer(const LazyTagIndexer&) = delete;
  LazyTagIndexer& operator=(const LazyTagIndexer&) = delete;

  // Block until n queue slots are free, then reserve them. MUST be called before the
  // caller takes the volume lock or a journal credit: blocking on the worker while
  // holding the volume lock shared deadlocks against a waiting checkpoint
  // (writer-priority) that the worker's own store writes queue behind, and the worker
  // may itself wait for a credit. Batches larger than the capacity are admitted once
  // the queue is fully empty.
  void ReserveSlots(size_t n);

  // Give back reserved slots that will not be enqueued (journal append failed).
  void ReleaseSlots(size_t n);

  // Move ops into previously reserved slots. Never blocks — safe under the volume
  // lock, which is what makes journal-append + enqueue atomic against checkpoints.
  void EnqueueReserved(std::vector<Op> ops);

  // Recovery: seed the queue with intents rebuilt from the journal/pending set. May
  // exceed the capacity transiently; takes no reservation.
  void Seed(std::vector<Op> ops);

  // Wait until every op enqueued before this call for any of `tags` has been applied
  // (the strict-visibility horizon). Returns the sticky first application error.
  Status WaitForTags(const std::vector<std::string>& tags);

  // Global horizon: wait for everything currently enqueued. Returns immediately while
  // paused (test support) — a paused queue would never drain.
  Status Drain();

  // Queued + in-flight ops in queue order — the checkpoint provider's and fsck's view
  // of what the posting stores may still be missing.
  std::vector<Op> SnapshotUnapplied() const;

  size_t PendingCount() const;

  // First store-application error, sticky (applied horizons still advance past a
  // failed batch so strict readers surface the error instead of hanging).
  Status first_error() const;

  // Test support: freeze the worker between batches so crash tests can pin the queue
  // in a partially drained state.
  void SetPausedForTesting(bool paused);

 private:
  // Ops the worker takes per application round.
  static constexpr size_t kBatchLimit = 256;

  void WorkerMain();

  // Apply one popped batch to the posting stores, one credited chunk at a time. Called
  // with mu_ NOT held.
  Status ApplyOps(const std::vector<Op>& ops);

  index::IndexCollection* const indexes_;
  osd::Osd* const volume_;
  const size_t capacity_;

  mutable std::mutex mu_;
  std::condition_variable slots_cv_;    // Reservers waiting for queue room.
  std::condition_variable work_cv_;     // The worker waiting for ops / unpause.
  std::condition_variable applied_cv_;  // Strict readers waiting on horizons.

  std::deque<Op> queue_;         // Enqueued, not picked up.
  std::vector<Op> in_flight_;    // Application in progress.
  size_t reserved_ = 0;          // Slots reserved but not yet enqueued.
  bool paused_ = false;
  bool shutdown_ = false;
  Status first_error_;

  // Per-tag horizons: how many ops for this tag were ever enqueued / applied. The
  // queue is FIFO and batches are queue prefixes, so per-tag application order equals
  // per-tag enqueue order and a counter pair is a correct watermark.
  std::unordered_map<std::string, uint64_t> enqueued_by_tag_;
  std::unordered_map<std::string, uint64_t> applied_by_tag_;
  uint64_t enqueued_total_ = 0;
  uint64_t applied_total_ = 0;

  // Declared last: it starts in the constructor and uses every member above.
  std::thread worker_;
};

}  // namespace core
}  // namespace hfad

#endif  // HFAD_SRC_CORE_LAZY_TAG_INDEXER_H_
