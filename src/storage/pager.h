// Pager: a striped page cache between the btrees and the block device.
//
// Pages are 4 KiB, identified by their byte offset on the device (always page-aligned —
// the buddy allocator's minimum block is one page). The cache is striped by page offset
// into independently locked stripes (the same lock-striping idiom as
// common/sharded_lock.h — see docs/CONCURRENCY.md): a cache hit takes its stripe's lock
// *shared* and sets a second-chance reference bit, so concurrent readers of disjoint —
// or even the same — pages never serialize on a global cache mutex. Only misses,
// zero-fills, fresh raw writes, drops, and eviction take a stripe exclusively.
// Eviction is per-stripe second-chance FIFO (CLOCK): approximate LRU that needs no list
// splice on the hit path. The stripe count adapts to capacity (one stripe per 64 pages,
// at most 16) so small caches keep strict global capacity behavior.
//
// No device IO ever happens under a stripe lock. Flush and CollectDirty snapshot the
// dirty set per stripe, drop the lock, and issue ONE sorted WriteBatch (adjacent pages
// coalesce into single device writes). Eviction prefers clean victims; when only dirty
// victims remain it leaves them resident, writes them back synchronously in one batch
// after the stripe lock is released, and clears their dirty bits only if the page's
// mutation epoch is unchanged — a page re-dirtied mid-IO simply stays dirty and is
// written again later. Every write-back runs on the calling thread: journaled volumes
// run no-steal, so eviction write-back never happens there, and Flush blocks its caller
// by contract.
//
// Extent payloads and large btree values go through the raw calls (ReadRaw, WriteRaw,
// WriteFresh), which the cache holds write-through: a fresh write leaves each page it
// wrote resident and clean, a raw read whose pages are all resident copies them without
// touching the device, and any other raw read makes one device read and fills nothing,
// so a cold scan cannot push the working set out. A resident payload page always equals
// what its owner last wrote: the owner drops a block's pages before freeing it, an
// in-place WriteRaw drops the pages it writes, and an extent cut short drops the pages
// wholly past its new end, so only pages holding owned bytes are ever resident.
//
// Hits/misses/write-backs are counted in hfad::stats so benchmarks can report IO
// amplification. Page *content* synchronization remains the responsibility of the
// owning structure (each btree holds its own lock), matching the paper's argument that
// locking should live in the index, not a shared namespace.
#ifndef HFAD_SRC_STORAGE_PAGER_H_
#define HFAD_SRC_STORAGE_PAGER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/retry.h"
#include "src/common/status.h"
#include "src/storage/block_device.h"

namespace hfad {

class PageChecksums;
class VolumeHealth;

constexpr size_t kPageSize = 4096;

// A cached page buffer. Access content through data(); call MarkDirty() after mutating.
class Page {
 public:
  // `dirty_counter`, when set, tracks the number of dirty pages across the owning
  // cache — maintained here because content owners mark pages dirty directly.
  explicit Page(uint64_t offset, std::atomic<int64_t>* dirty_counter = nullptr)
      : offset_(offset), dirty_counter_(dirty_counter) {
    buf_.resize(kPageSize);
  }

  uint64_t offset() const { return offset_; }
  uint8_t* data() { return reinterpret_cast<uint8_t*>(buf_.data()); }
  const uint8_t* data() const { return reinterpret_cast<const uint8_t*>(buf_.data()); }
  char* cdata() { return buf_.data(); }
  const char* cdata() const { return buf_.data(); }

  void MarkDirty() {
    // The epoch lets eviction validate a lock-free write-back: it bumps on EVERY mark,
    // so "epoch unchanged" means "no mutation since the write-back snapshot".
    epoch_.fetch_add(1, std::memory_order_acq_rel);
    if (!dirty_.exchange(true, std::memory_order_acq_rel) && dirty_counter_ != nullptr) {
      dirty_counter_->fetch_add(1, std::memory_order_relaxed);
    }
  }
  bool dirty() const { return dirty_.load(std::memory_order_acquire); }
  void ClearDirty() {
    if (dirty_.exchange(false, std::memory_order_acq_rel) && dirty_counter_ != nullptr) {
      dirty_counter_->fetch_sub(1, std::memory_order_relaxed);
    }
  }

  // Mutation epoch (see MarkDirty).
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  // Second-chance (CLOCK) reference bit, settable under a shared stripe lock.
  void Touch() { referenced_.store(true, std::memory_order_relaxed); }
  bool referenced() const { return referenced_.load(std::memory_order_relaxed); }
  void ClearReferenced() { referenced_.store(false, std::memory_order_relaxed); }

 private:
  const uint64_t offset_;
  std::string buf_;
  std::atomic<bool> dirty_{false};
  std::atomic<bool> referenced_{false};
  std::atomic<uint64_t> epoch_{0};
  std::atomic<int64_t>* const dirty_counter_;
};

using PageRef = std::shared_ptr<Page>;

class Pager {
 public:
  // capacity_pages bounds the cache; evicted dirty pages are written back first.
  //
  // With no_steal = true the pager never writes a dirty page back on eviction: dirty pages
  // stay cached (the cache may exceed capacity) until an explicit Flush(). This is the
  // no-steal buffer policy the journaled OSD depends on — between checkpoints the on-disk
  // state is exactly the last checkpoint, so crash recovery can replay the journal onto it.
  Pager(BlockDevice* device, size_t capacity_pages, bool no_steal = false);

  // Attach the volume's per-page CRC table (null disables, the default). Every miss
  // read and raw read verifies against it; every successful device write of page
  // content (Flush, eviction write-back, WriteRaw, WriteFresh) stamps it. Call before the
  // pager is shared across threads; the table must outlive the pager.
  void SetChecksums(PageChecksums* checksums) { checksums_ = checksums; }
  PageChecksums* checksums() const { return checksums_; }

  // Attach the volume health to escalate on checksum mismatches and reads that stay
  // failed past the retry policy (null disables, the default).
  void SetVolumeHealth(VolumeHealth* health) { health_ = health; }

  // Retry policy for transient device IO errors on the miss-read, raw-IO, flush,
  // and write-back paths. Each backs off and retries in place (no stripe lock is ever
  // held across device IO, so none is held across a backoff sleep).
  void SetRetryPolicy(const RetryPolicy& policy) { retry_ = policy; }

  // Fetch the page at the given byte offset (must be page-aligned), reading on miss.
  Result<PageRef> Get(uint64_t offset);

  // The cached page at offset, or null when not resident. Never touches the device —
  // the scrubber uses this to ask "is there a clean cached copy to repair from?"
  // without perturbing residency.
  PageRef Peek(uint64_t offset) const;

  // Return a zeroed page at offset without reading the device (for freshly allocated pages).
  Result<PageRef> GetZeroed(uint64_t offset);

  // Write back every dirty page (one sorted, coalesced WriteBatch) and Sync the device.
  // Caller must exclude page-content mutators for the duration (the OSD holds volume_mu_
  // exclusive; FileSystem-layer tree writers are excluded via the mutation hold below).
  Status Flush();

  // Copy (offset, image) of every dirty page, without writing anything back. The OSD
  // journals these images ahead of a checkpoint so the checkpoint's in-place writes are
  // redo-able after a crash. Same exclusion requirements as Flush; the images are copied
  // outside the stripe locks.
  void CollectDirty(std::vector<std::pair<uint64_t, std::string>>* out) const;

  // Number of dirty pages currently cached. O(1): journal-space accounting calls this
  // on every journaled op.
  size_t dirty_pages() const {
    int64_t n = dirty_count_.load(std::memory_order_relaxed);
    return n > 0 ? static_cast<size_t>(n) : 0;
  }

  // Drop a page / every page overlapping [offset, offset + length) from the cache. The
  // owner of a block calls this before freeing it. Discards dirty data.
  void Invalidate(uint64_t offset);
  void InvalidateRange(uint64_t offset, uint64_t length);

  // Tallest tree whose pages this cache holds, as the trees report it: btrees on every
  // descent and root split, extent trees when the OSD asks their height. Monotonic, so
  // it bounds every tree that has reported. The OSD sizes its journal credits from it.
  void NoteTreeHeight(int height) {
    int seen = tree_height_bound_.load(std::memory_order_relaxed);
    while (height > seen &&
           !tree_height_bound_.compare_exchange_weak(seen, height, std::memory_order_relaxed)) {
    }
  }
  int tree_height_bound() const { return tree_height_bound_.load(std::memory_order_relaxed); }

  // Write-through IO for extent payloads and large btree values (see the header
  // comment). A raw range lies inside one buddy allocation, and allocations are
  // page-aligned and at least one page, so no page holds two owners' bytes.
  //
  // ReadRaw copies the bytes from memory when every page of the cover [floor(offset),
  // ceil(offset + size)) is resident (raw_cache_hits). Otherwise it makes exactly one
  // device read of the cover (raw_cache_misses), caches none of it, and with checksums
  // attached verifies every page of the cover whole (unstamped pages pass, quarantined
  // pages fail) before returning only the requested bytes.
  //
  // WriteRaw overwrites bytes inside a range its caller already owns, and drops the
  // resident pages it writes. It writes the payload in one device call and stamps every
  // page it fully covers from the payload; a partially covered head or tail page is
  // read back whole from the device and stamped whole (one extra read per such page,
  // counted in raw_write_readbacks).
  //
  // WriteFresh writes a payload that starts a buddy block its caller has just
  // allocated (page-aligned `offset`; InvalidArgument otherwise). It makes one device
  // write and reads nothing: every full page is stamped from the payload, and a partly
  // written last page is stamped over the written prefix only, since no extent owns the
  // block's bytes past the payload. Each written page then becomes the clean resident
  // copy, replacing any other, with a partly written last page zero-filled past the
  // payload. A failed write drops the range's pages.
  Status ReadRaw(uint64_t offset, size_t size, std::string* out) const;
  Status WriteRaw(uint64_t offset, Slice data);
  Status WriteFresh(uint64_t offset, Slice data);

  // Multi-page mutation vs. snapshot coordination. Structure mutators (btree writers)
  // hold this shared for the duration of a mutation that spans page boundaries; Flush /
  // CollectDirty / DropCacheForTesting hold it exclusive internally, so a checkpoint
  // only ever snapshots complete mutations. Page *content* writes under an OSD object
  // lock are already excluded from checkpoints by volume_mu_; this hold covers the
  // FileSystem-layer index/reverse trees that mutate pages outside the volume lock.
  // Lock order: tree lock -> this -> stripe locks (see docs/CONCURRENCY.md).
  [[nodiscard]] std::shared_lock<std::shared_mutex> SharedMutationHold() const {
    return std::shared_lock<std::shared_mutex>(flush_mu_);
  }

  // Drop the whole cache (testing: force re-reads from the device).
  Status DropCacheForTesting();

  size_t cached_pages() const;

  size_t stripe_count() const { return stripe_count_; }

  // Per-stripe lock instrumentation (same shape as ShardedMutex::ShardStat): every
  // stripe acquisition is counted locally, and contended ones additionally feed the
  // process-global kLockContentions counter — the pager's stripe locks used to be
  // the one striped structure invisible to contention accounting. Acquisitions stay
  // local so kLockAcquisitions keeps its §2.3 meaning (namespace-structure locks).
  struct StripeLockStat {
    size_t stripe = 0;
    uint64_t acquisitions = 0;
    uint64_t contentions = 0;
  };
  // The n most contended stripes, descending (zero-contention stripes omitted).
  std::vector<StripeLockStat> TopContendedStripes(size_t n) const;
  uint64_t stripe_lock_acquisitions() const;
  uint64_t stripe_lock_contentions() const;

 private:
  // One independently locked cache stripe: hash map of resident pages plus the
  // second-chance FIFO ring the evictor sweeps. Ring entries are lazily deleted
  // (Invalidate leaves a stale offset behind; the sweep skips it, and PushRingLocked
  // drops stale entries once they could outnumber the live ones).
  struct Stripe {
    mutable std::shared_mutex mu;
    mutable std::atomic<uint64_t> acquisitions{0};
    mutable std::atomic<uint64_t> contentions{0};
    std::unordered_map<uint64_t, PageRef> map;
    std::deque<uint64_t> ring;
  };

  // Counted stripe acquisition (try-lock-first probe, like sharded_lock.h).
  std::shared_lock<std::shared_mutex> LockStripeShared(const Stripe& s) const;
  std::unique_lock<std::shared_mutex> LockStripeExclusive(const Stripe& s) const;

  // One dirty victim picked for batched write-back: its image and epoch were snapshotted
  // under the stripe lock; the page itself stays resident until the write succeeds and
  // the epoch still matches. Holding the PageRef pins the page (use_count > 1), so a
  // concurrent sweep in the same stripe can never snapshot the same victim twice, and
  // the post-IO pass can verify identity (not just offset) before clearing the dirty bit.
  struct Writeback {
    PageRef page;
    uint64_t epoch;
    std::string image;
  };

  Stripe& StripeFor(uint64_t offset) const {
    return stripes_[(offset / kPageSize) % stripe_count_];
  }

  // Append a newly resident page to the stripe's ring. Caller holds s.mu exclusively.
  void PushRingLocked(Stripe& s, uint64_t offset);

  // Make `bytes` (at most one page, zero-filled past its end) the clean resident copy of
  // the page at `offset`, replacing any resident copy (WriteFresh).
  Status InstallClean(uint64_t offset, Slice bytes);

  // Copy [offset, offset + size) into *out when every page it touches is resident,
  // touching each; false at the first page that is not (ReadRaw's hit path).
  bool CopyResident(uint64_t offset, size_t size, std::string* out) const;

  // Evict from `s` until it is under its per-stripe budget (or nothing is evictable:
  // capacity is a target, not a hard bound — pinned and no-steal-dirty pages stay).
  // Clean victims are evicted in place; dirty victims (non-no-steal) are snapshotted
  // into *writeback and stay resident — the caller issues the batch IO after releasing
  // s.mu by calling FlushWriteback. Caller holds s.mu exclusively.
  void EvictLocked(Stripe& s, std::vector<Writeback>* writeback);

  // Issue one sorted WriteBatch for `writeback` (no locks held), then, under s.mu, clear
  // the dirty bit of every page whose epoch is unchanged and evict it if the stripe is
  // still over budget. No-op on an empty list. A failed batch counts into
  // kPagerWritebackErrors and leaves the victims dirty.
  Status FlushWriteback(Stripe& s, std::vector<Writeback>* writeback);

  BlockDevice* const device_;
  PageChecksums* checksums_ = nullptr;  // Optional; see SetChecksums.
  VolumeHealth* health_ = nullptr;      // Optional; see SetVolumeHealth.
  RetryPolicy retry_ = RetryPolicy::None();
  const size_t capacity_;
  const bool no_steal_;
  const size_t stripe_count_;
  const size_t stripe_capacity_;
  const std::unique_ptr<Stripe[]> stripes_;
  mutable std::atomic<int64_t> dirty_count_{0};
  std::atomic<int> tree_height_bound_{1};  // See NoteTreeHeight().
  // See SharedMutationHold().
  mutable std::shared_mutex flush_mu_;
};

}  // namespace hfad

#endif  // HFAD_SRC_STORAGE_PAGER_H_
