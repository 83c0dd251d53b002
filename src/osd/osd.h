// The hFAD object-based storage device (§3.3).
//
// The OSD presents uniquely-identified containers of bytes. Each object carries metadata
// (security attributes, access/modification times, size) and is *fully byte-accessible*
// (§3.1.2): beyond POSIX-style read/write, bytes can be inserted into the middle of an
// object and removed from anywhere (the two-off_t truncate). The OSD is comparable to the
// ZFS DMU, except it exposes a flat object space rather than objsets.
//
// One Osd instance owns a complete volume on a BlockDevice:
//
//   [0, 4K)      superblock
//   [4K, +A)     allocator-snapshot area
//   [.., +J)     journal region
//   [heap, end)  buddy-allocated heap: btree pages, extent payloads, postings
//
// Object bookkeeping lives in the *object table*, a btree mapping OID -> object record
// (metadata + extent-tree root). Object data lives in per-object counted extent trees.
//
// Durability ("the OSD may be transactional" — §3.3, made concrete here):
//   * journaling on (default): every mutating op appends one logical redo record; the
//     pager runs no-steal, so on-disk pages always equal the last checkpoint. Checkpoints
//     journal the dirty page images plus a commit record (jbd-style), then write in place.
//     Recovery either redoes a completed checkpoint or replays the logical records.
//   * journaling off: a plain write-back cache; durability only at Checkpoint().
// Every journal commit rides the journal's own io::IoEngine completion chain; page
// write-back (checkpoints, and eviction when journaling is off) is one synchronous
// sorted batch on the calling thread.
//
// Concurrency: per-object sharded reader/writer locks (common::ShardedMutex) for data
// ops — mutations exclusive, reads shared — plus a global reader/writer lock that lets
// Checkpoint() quiesce the volume. Independent objects never contend on a shared
// ancestor, which is exactly the paper's §2.3 argument. See docs/CONCURRENCY.md for the
// full locking model and ordering rules.
#ifndef HFAD_SRC_OSD_OSD_H_
#define HFAD_SRC_OSD_OSD_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/btree/btree.h"
#include "src/common/retry.h"
#include "src/common/sharded_lock.h"
#include "src/common/slice.h"
#include "src/common/status.h"
#include "src/extent/extent_tree.h"
#include "src/io/io_engine.h"
#include "src/journal/journal.h"
#include "src/storage/block_device.h"
#include "src/storage/buddy_allocator.h"
#include "src/storage/checksums.h"
#include "src/storage/pager.h"
#include "src/storage/superblock.h"
#include "src/storage/volume_health.h"

namespace hfad {
namespace osd {

class Scrubber;
struct ScrubReport;

using ObjectId = uint64_t;

// Per-object metadata (§3.3: "security attributes, its last access and modified times,
// and its size"). Size is maintained by the OSD; the rest is caller-settable.
struct ObjectMeta {
  uint32_t mode = 0600;   // POSIX-style permission bits.
  uint32_t uid = 0;
  uint32_t gid = 0;
  uint64_t atime_ns = 0;
  uint64_t mtime_ns = 0;
  uint64_t ctime_ns = 0;
  uint64_t size = 0;      // Maintained by the OSD; ignored on SetAttributes.
};

struct OsdOptions {
  // Append a redo record per mutating op and checkpoint jbd-style (see file comment).
  bool journaling = true;
  // With journaling: defer the journal sync until Sync()/Checkpoint() (group commit).
  // Without group commit every mutating op syncs the journal before returning.
  bool group_commit = true;
  // Page-cache capacity. With journaling the cache can exceed this (no-steal).
  size_t pager_capacity_pages = 4096;
  // Journal region size; 0 = 1/8 of the device clamped to [256 KiB, 64 MiB].
  uint64_t journal_size = 0;
  // Accounted journal fill at which the reservation path kicks the background
  // checkpointer. The fill is what a checkpoint would need the journal for: bytes
  // appended, reservations for records not yet appended, credits ops still hold for
  // pages they may dirty, and the current epilogue (dirty page images plus the allocator
  // snapshot). Kicked here, a checkpoint is usually done before any reservation stops
  // fitting and has to checkpoint on its own thread. <= 0 or >= 1 disables the kick.
  double checkpoint_kick_occupancy = 0.7;
  // Maintain per-page CRC32C checksums (fresh volumes only; existing volumes keep
  // whatever their superblock says). Verified on every pager miss and by scrub.
  bool page_checksums = true;
  // Transient-IO retry policy for the pager's read, flush and write-back paths and
  // the journal commit chain. RetryPolicy::None() disables retry (crash tests that
  // count device writes sweep with it disabled).
  RetryPolicy retry;
  // Background scrub cadence; 0 disables the scrub thread (ScrubNow() still
  // works). Each pass walks every checksummed page of the volume, paced against live
  // traffic (see Scrubber).
  uint64_t scrub_interval_ms = 0;
};

class Osd {
 public:
  // What a journal credit is held for. The kind decides what a reservation may wait on:
  // a holder that may itself wait for another reservation must never be waited on.
  enum class CreditUse {
    // An Osd op or one lazy-indexer apply chunk. The holder never waits for another
    // reservation while it holds the credit, so other reservations may wait for it.
    kApply,
    // A FileSystem naming op: held while the op waits for its own record's reservation.
    // Admitted only while these credits total under a quarter of what a checkpoint
    // leaves free (a lone larger one only when none is held), so records never wait on
    // them.
    kNaming,
    // Full-text indexing of one record: a fixed 64 KiB (the pages one document dirties
    // grow with its terms; no small per-call bound exists), admitted like kNaming and,
    // like every credit, given back when dropped: by then the pages its apply dirtied
    // are counted as dirty pages.
    kContent,
  };

  // A reservation of journal space held by one op (jbd2's handle credits). Its logical
  // part covers the op's redo record and is released when the record is appended. Its
  // epilogue part covers the page images the holder may still add to the next
  // checkpoint, and is released when the credit is destroyed: by then the pages it
  // covered are dirty and the checkpoint accounting counts them as such. Move-only; a
  // default-constructed credit (or any credit on a volume without journaling) holds
  // nothing.
  class JournalCredit {
   public:
    JournalCredit() = default;
    JournalCredit(JournalCredit&& other) noexcept { *this = std::move(other); }
    JournalCredit& operator=(JournalCredit&& other) noexcept;
    JournalCredit(const JournalCredit&) = delete;
    JournalCredit& operator=(const JournalCredit&) = delete;
    ~JournalCredit() { Release(); }

   private:
    friend class Osd;
    void Release();

    Osd* osd_ = nullptr;
    uint64_t logical_ = 0;
    uint64_t epilogue_ = 0;
    CreditUse use_ = CreditUse::kApply;
  };

  // Journal replay hook for records appended by higher layers through AppendForeign().
  // Called in journal order, interleaved correctly with the OSD's own records. The Osd*
  // is the volume being opened (not yet returned from Open), so the hook can mount the
  // higher layer's structures on it lazily.
  using ForeignReplayFn = std::function<Status(Osd* volume, Slice payload)>;

  // Format `device` as a fresh volume. The device must be at least ~2 MiB.
  static Result<std::unique_ptr<Osd>> Create(std::shared_ptr<BlockDevice> device,
                                             const OsdOptions& options);

  // Open an existing volume, running crash recovery. `replay_foreign` may be null when no
  // higher layer journals through this OSD. A record that fails to replay fails the open
  // with Corruption, except an InvalidArgument from `replay_foreign` (the higher layer
  // refusing the volume), which keeps its code; both name the record's position.
  static Result<std::unique_ptr<Osd>> Open(std::shared_ptr<BlockDevice> device,
                                           const OsdOptions& options,
                                           ForeignReplayFn replay_foreign = nullptr);

  ~Osd();

  Osd(const Osd&) = delete;
  Osd& operator=(const Osd&) = delete;

  // ---- Object lifecycle ----

  // Allocate a fresh object (empty, metadata defaulted, times set to now).
  Result<ObjectId> CreateObject();

  // Create an object under a caller-chosen id (AlreadyExists when taken) and advance
  // the volume's id counter past it. OsdCluster allocates ids from a cluster-wide
  // counter and places them by hash, so the owning volume cannot pick the id itself.
  Result<ObjectId> CreateObjectAt(ObjectId oid);

  // The next id CreateObject() would hand out. OsdCluster recovers its cluster-wide
  // counter as the max across shards.
  uint64_t next_object_id() const { return next_oid_.load(); }

  // Remove an object and free all its storage.
  Status DeleteObject(ObjectId oid);

  bool Exists(ObjectId oid) const;

  // Number of live objects.
  uint64_t object_count() const;

  // Visit every object in OID order. Stop early by returning false.
  Status ScanObjects(const std::function<bool(ObjectId, const ObjectMeta&)>& fn) const;

  // Seekable form: visit objects with oid >= start, in OID order. Paginated consumers
  // (SearchCursor root enumeration) resume from `after + 1` instead of rescanning the
  // table head on every page.
  Status ScanObjects(ObjectId start,
                     const std::function<bool(ObjectId, const ObjectMeta&)>& fn) const;

  // ---- Metadata ----

  Result<ObjectMeta> Stat(ObjectId oid) const;

  // Update mode/uid/gid (and ctime). Size and times are OSD-maintained.
  Status SetAttributes(ObjectId oid, uint32_t mode, uint32_t uid, uint32_t gid);

  // ---- Byte access (§3.1.2) ----

  // Read up to n bytes at offset; short reads at end of object. A small object's read
  // keeps its extent map in memory, and the next read of it makes only its data reads:
  // no object-table descent and no extent-tree page.
  Status Read(ObjectId oid, uint64_t offset, size_t n, std::string* out) const;

  // Overwrite (POSIX pwrite); writing at the end extends the object.
  Status Write(ObjectId oid, uint64_t offset, Slice data);

  // Insert bytes at offset, shifting the tail up — the hFAD `insert` call.
  Status Insert(ObjectId oid, uint64_t offset, Slice data);

  // Remove `length` bytes at offset, shifting the tail down — the hFAD two-off_t truncate.
  Status RemoveRange(ObjectId oid, uint64_t offset, uint64_t length);

  // POSIX-style truncate: shrink drops the tail, grow zero-fills.
  Status Truncate(ObjectId oid, uint64_t new_size);

  Result<uint64_t> Size(ObjectId oid) const;

  // ---- Durability ----

  // Make every acknowledged op durable (journal commit). Without journaling, a
  // checkpoint. SyncAsync plus a wait; it holds no volume lock across the commit.
  Status Sync();

  // Sync for a caller that syncs several volumes at once (OsdCluster's fan-out): starts
  // the journal commit and returns without waiting. `done` fires with the outcome: from
  // this call when the volume refuses, nothing is pending, or journaling is off (then
  // after a checkpoint on this thread); otherwise on the journal's engine completion
  // thread, so it must follow the completion-thread rules in docs/CONCURRENCY.md. It
  // joins a chain link in flight or drains the next one, so volumes synced together
  // cost one device sync round trip, not one each.
  void SyncAsync(std::function<void(Status)> done);

  // Full checkpoint: journal dirty page images + commit record, write everything in
  // place, persist allocator snapshot and superblock, reset the journal.
  Status Checkpoint();

  // Quiesce the volume: stop the background checkpointer and take a final checkpoint.
  // Idempotent; the destructor calls it when the caller has not. A no-op on a volume
  // that Create or Open did not finish. The outcome is kept in last_close_status() and
  // a failure counts into stats (kOsdCloseErrors), so shutdown errors are never
  // silently dropped.
  Status Close();

  // Outcome of the last Close() (Ok before any close).
  Status last_close_status() const;

  // ---- Support for the index layer ----
  //
  // Index stores allocate their own btrees from the volume heap. Their roots are
  // registered under names so reopening the volume can find them.

  Pager* pager() { return pager_.get(); }
  BuddyAllocator* allocator() { return allocator_.get(); }

  // Root registered under `name`, or 0 when absent.
  Result<uint64_t> GetNamedRoot(const std::string& name) const;
  Status SetNamedRoot(const std::string& name, uint64_t root);

  // Journal a higher-layer logical record; replayed via the Open() hook after a crash.
  // A no-op when journaling is off (the higher layer then has checkpoint durability,
  // like every other mutation). The record's reservation covers only the record: the
  // pages its apply dirties are the caller's credit (ReserveApplyCredit).
  Status AppendForeign(Slice payload);

  // Journal a higher-layer record and, on success, run `with_lock` while still holding
  // the volume lock the append ran under — the atomic append+enqueue the lazy indexer
  // needs: a checkpoint can never slip between the journal append and the enqueue and
  // miss the intent in both the journal and the unapplied-foreign snapshot. With
  // journaling off no record is written but the callback still runs under the volume
  // lock (same atomicity against the checkpoint's snapshot). `with_lock` must never
  // block on threads that take the volume lock (docs/CONCURRENCY.md). A record appended
  // with a callback may outlive the next checkpoint in the unapplied-foreign snapshot,
  // so the journal accounting reserves room for it there until that checkpoint.
  Status AppendForeign(Slice payload, const std::function<void()>& with_lock);

  // ---- Journal credits for higher layers ----

  // Reserve a credit for the pages a higher layer's apply will dirty on THIS volume:
  // `mutations` btree Put/Delete calls, each 2·height + 2 pages (the root-to-leaf path,
  // one new page per level it splits plus a new root, and the right sibling whose back
  // link a leaf split rewrites), height being the tallest tree the volume has seen.
  // kContent ignores `mutations`. Take it before journaling the record the apply
  // follows, so no checkpoint this thread runs can fall between the record and its
  // apply, and drop it when the apply returns. May checkpoint or wait for other
  // credits (never holding a volume lock); never NoSpace for lack of room alone.
  // Refused first with CheckWritable()'s status: the credit is the health gate for
  // higher-layer state on this volume, whose record may go to another volume's journal
  // or, with journaling off, to none.
  Result<JournalCredit> ReserveApplyCredit(CreditUse use, size_t mutations = 0);

  // The most mutations one credit may cover: a quarter of the journal's worth. The lazy
  // tag indexer applies its batches in chunks of this size, one credit each.
  size_t MaxCreditMutations() const;

  // ---- Deferred application of foreign records (lazy indexing) ----
  //
  // A higher layer that defers applying its journaled records registers a provider
  // returning the payloads still unapplied at the moment of the call. Every checkpoint
  // persists that snapshot into a volume-resident btree (named root
  // "osd/pending-foreign") inside the checkpoint's atomic page-image epilogue, so
  // resetting the journal never orphans an acknowledged-but-unapplied record. Open()
  // feeds the persisted set through `replay_foreign` BEFORE the journal's logical
  // suffix (those records predate everything the journal still holds). A null provider
  // (the default) leaves the persisted set untouched.
  using UnappliedForeignFn = std::function<std::vector<std::string>()>;
  void SetUnappliedForeignProvider(UnappliedForeignFn fn);

  // Invoked at the very end of every successful checkpoint, still under the exclusive
  // volume lock. OsdCluster hangs retention-list trimming off the metadata shard's
  // checkpoints: once this volume's checkpoint has captured the cross-shard effects,
  // the other shards' copies of the corresponding records may be dropped. The callback
  // must not call back into this Osd (the volume lock is held) and must not block.
  void SetCheckpointCallback(std::function<void()> fn);

  // Invoked each time a kick is delivered to this volume's background checkpointer,
  // from the reservation path or RequestCheckpoint (not on explicit checkpoints).
  // OsdCluster gives every data shard the metadata shard's kick: a data shard's journal
  // fills partly with records it retains until a metadata checkpoint, and only that
  // checkpoint lets its next snapshot drop them. Runs on the kicking thread with no
  // volume lock held; must not block.
  void SetKickCallback(std::function<void()> fn);

  // Wake the background checkpointer (no-op when the thread is not running or already
  // kicked). A scrub repair calls it, and a data shard's kick callback calls the
  // metadata shard's; such a kick always runs a checkpoint, also when it arrives while
  // one is running. The reservation path kicks through Kick(on_fill = true) instead.
  void RequestCheckpoint();

  // True while Open() is replaying the journal. Higher layers use this to suppress
  // re-journaling during their own replay.
  bool in_recovery() const { return in_recovery_; }

  // Volume heap statistics (bench support).
  uint64_t heap_allocated_bytes() const { return allocator_->allocated_bytes(); }

  // ---- Observability ----

  // Where the background checkpointer currently is, as a dump-able gauge.
  enum class CheckpointerState : int {
    kDisabled = 0,  // No background thread (journaling off or kick disabled).
    kIdle = 1,      // Thread parked, waiting for a kick.
    kKicked = 2,    // Kick delivered, checkpoint not yet started.
    kRunning = 3,   // Checkpoint in progress.
  };
  CheckpointerState checkpointer_state() const {
    return static_cast<CheckpointerState>(ckpt_state_.load(std::memory_order_relaxed));
  }

  // Journal gauges (0 / empty when journaling is off). journal_reserved() is the
  // accounted fill the kick and the backstop read (see checkpoint_kick_occupancy), as a
  // fraction of the journal; journal_occupancy() counts appended bytes only.
  double journal_occupancy() const;
  double journal_reserved() const;
  uint64_t journal_pending_records() const;

  // The IoEngine the volume's journal commits through (never null). FileSystem::
  // DumpMetrics aggregates the per-shard engines' gauges.
  io::IoEngine* io_engine() const { return journal_->io_engine(); }

  // One JSON document: process counters + latency histograms + this volume's gauges
  // (journal occupancy, pager residency, checkpointer state) + per-shard lock hot
  // spots. Schema documented in docs/OBSERVABILITY.md.
  std::string DumpMetrics() const;

  // Total journal records ever appended on this volume (monotonic across checkpoints;
  // sequence numbering continues over journal resets). bench_query uses deltas to
  // compare batched vs. per-tag mutation on records written.
  uint64_t journal_records_appended() const;

  // Structural self-check of one object: its extent tree's invariants hold, the
  // recorded size matches the tree, and a cached extent map (see Read) equals the tree's.
  // Expensive; used by fsck.
  Status CheckObject(ObjectId oid) const;

  // ---- Fault-domain hardening ----

  // This volume's health state machine. Mutations are rejected with
  // Status::ReadOnly once the state passes kDegraded; nothing is served at
  // kFailed. Escalation is driven by the pager (read faults, checksum
  // mismatches), the checkpoint path (persistent write/sync failures), and
  // the scrubber (quarantines).
  VolumeHealth& health() { return health_; }
  const VolumeHealth& health() const { return health_; }
  HealthState health_state() const { return health_.state(); }

  // Per-page checksum table; null when the volume was created with page_checksums
  // off.
  PageChecksums* checksums() const { return checksums_.get(); }

  // Run one full synchronous scrub pass (independent of the background
  // thread). Unavailable (Ok, empty report) when checksums are off.
  Status ScrubNow(ScrubReport* report);

  // The scrubber, for gauges (pass count, last report). Null when checksums
  // are off.
  Scrubber* scrubber() const { return scrubber_.get(); }

 private:
  Osd(std::shared_ptr<BlockDevice> device, const OsdOptions& options, Superblock sb);

  // Second-phase construction shared by Create/Open.
  void InitStructures();

  // Background checkpointer (see OsdOptions::checkpoint_kick_occupancy). Started once
  // construction is complete; the reservation path wakes it via Kick().
  void StartCheckpointThread();
  void StopCheckpointThread();
  void CheckpointThreadMain();
  // Deliver a kick to the background checkpointer. on_fill marks the reservation
  // path's kick, sent once the accounted fill crosses the kick line: if it arrives while
  // a checkpoint runs, it stays queued and the checkpointer re-checks the fill before
  // acting on it, since the running checkpoint has usually brought the fill back under
  // the line. Every other kick (RequestCheckpoint) runs a checkpoint.
  void Kick(bool on_fill);
  // The accounted fill at which the reservation path kicks the checkpointer.
  uint64_t KickBytes() const {
    return static_cast<uint64_t>(options_.checkpoint_kick_occupancy * sb_.journal_size);
  }

  // What a mutating op asks of the journal: a bound on its redo record and the tree
  // changes its apply makes besides its one object-table Put or Delete.
  struct OpCost {
    uint64_t record_bytes = 64;
    uint64_t fresh_extents = 0;  // Extents spliced into the object's extent tree.
    bool cuts = false;           // Also cuts and drops extents (RemoveRange, shrink).
  };
  // Validates the op against current state under its locks, encodes its redo record,
  // and tightens `cost` where the state tells more (a growing Truncate).
  using PrepareFn =
      std::function<Status(uint64_t now, OpCost* cost, std::string* record, bool* force_sync)>;
  using ApplyFn = std::function<Status(uint64_t now)>;

  // The journal-then-apply sequence all eight mutating ops share (the queue_transaction
  // shape of Ceph's ObjectStore): reserve a credit for the record and the pages the
  // apply may dirty, take the volume lock shared and `oid`'s lock exclusive, `prepare`,
  // journal the record, `apply`, and release the credit when `apply` returns. When
  // `prepare` finds a taller tree or a larger splice than the credit covers, the locks
  // and credit are dropped and the op re-reserves. An op too large to journal applies
  // under the exclusive volume lock and checkpoints on its own thread. Without
  // journaling (or during replay) only the locks and `apply` remain.
  Status JournalThenApply(ObjectId oid, OpCost cost, const PrepareFn& prepare,
                          const ApplyFn& apply);

  // Journal bytes a credit for `cost` reserves for page images.
  uint64_t CreditEpilogue(const OpCost& cost) const;

  // Take a credit of `logical` record bytes plus `epilogue` page-image bytes. When it
  // does not fit: checkpoint (the backstop) if appended bytes or dirty pages stand in
  // the way, else wait, holding no volume lock, for credits others hold to be released.
  // InvalidArgument only when the request cannot fit an empty journal (a record beside
  // half of it) or beside the floor (see Fill); NoSpace when eight backstops did not
  // make room, or the floor leaves none beside the naming credits held.
  Result<JournalCredit> Reserve(uint64_t logical, uint64_t epilogue, CreditUse use);
  void ReleaseCredit(JournalCredit* credit);

  // Journal one redo record against `credit`, releasing its logical part. Called with
  // the relevant object lock held, *before* the op is applied (write-ahead). force_sync
  // commits the journal immediately — required before any apply that overwrites live
  // extent payload in place, because payload IO bypasses the no-steal page cache.
  // `deferred` marks a foreign record whose apply may outlive the next checkpoint.
  Status JournalRecord(JournalCredit* credit, Slice payload, bool force_sync,
                       bool deferred = false);

  // Journal accounting in bytes, read under journal_mu_.
  struct Fill {
    uint64_t total = 0;        // Everything the journal must hold room for.
    uint64_t reclaimable = 0;  // What a checkpoint gives back: appended bytes, dirty
                               // page images, and the bound on deferred records'
                               // snapshot pages.
    uint64_t floor = 0;        // What it does not: the allocator snapshot, record
                               // framing, and the last unapplied-foreign snapshot.
  };
  Fill FillLocked() const;

  // Object size with the object + volume locks already held. Also asks the object's
  // extent tree its height, which reports it to the pager, so a credit sized before the
  // locks can be checked against the tree the op will splice into.
  Result<uint64_t> LockedSize(ObjectId oid) const;

  // Health gates: every mutating entry point rejects with Status::ReadOnly
  // (or IoError at kFailed) before touching any state; reads are rejected only
  // at kFailed. Cheap — one relaxed atomic load on the happy path.
  Status CheckWritable() const;
  Status CheckReadable() const;

  // Drop checksum entries for heap pages the allocator no longer considers
  // live. Called under the exclusive volume lock during checkpoint: an extent
  // freed (or an orphaned post-checkpoint raw write whose record never
  // committed) must not leave a stale entry that a future reallocation-less
  // read could trip over after recovery loads the persisted table.
  void ReconcileChecksumsWithAllocator();

  // Callers hold volume_mu_ exclusively (or are single-threaded construction paths).
  // Checks that the epilogue fits the journal before appending any of it: a miss is an
  // accounting bug, counted into stats::Counter::kCheckpointEpilogueOverflows and
  // returned as Internal (NoSpace during recovery, whose journal the accounting never
  // governed).
  Status CheckpointLocked();

  // CheckpointLocked on the thread of the op that needs it (the journal-space backstop,
  // or an op too large to journal), counted into stats::Counter::kCheckpointsInline.
  Status CheckpointInline();

  // Rewrite the pending-foreign btree from the registered provider's snapshot. Called
  // at the top of CheckpointLocked (volume lock exclusive), so the rewritten pages ride
  // the checkpoint's own epilogue. Accesses named_roots_ directly — Get/SetNamedRoot
  // take volume_mu_ shared and would deadlock under the exclusive hold.
  Status PersistUnappliedForeign();

  // Apply one journal record during recovery (type dispatch).
  Status ReplayRecord(Slice payload, const ForeignReplayFn& replay_foreign);

  // Op internals (no journaling, no global lock) shared by public ops and replay.
  // MutateObject is the read-modify-write of an object's extent tree and record that
  // every data op below runs; it and DoDelete drop the object's cached extent map.
  Status MutateObject(ObjectId oid, uint64_t now_ns,
                      const std::function<Status(extent::ExtentTree*)>& fn);
  Result<ObjectId> DoCreate(ObjectId oid, uint64_t now_ns);
  Status DoDelete(ObjectId oid);
  Status DoWrite(ObjectId oid, uint64_t offset, Slice data, uint64_t now_ns);
  Status DoInsert(ObjectId oid, uint64_t offset, Slice data, uint64_t now_ns);
  Status DoRemoveRange(ObjectId oid, uint64_t offset, uint64_t length, uint64_t now_ns);
  Status DoTruncate(ObjectId oid, uint64_t new_size, uint64_t now_ns);
  Status DoSetAttributes(ObjectId oid, uint32_t mode, uint32_t uid, uint32_t gid,
                         uint64_t now_ns);

  std::shared_ptr<BlockDevice> device_;
  const OsdOptions options_;
  Superblock sb_;

  std::unique_ptr<BuddyAllocator> allocator_;
  std::unique_ptr<PageChecksums> checksums_;  // Null when disabled; see checksums().
  VolumeHealth health_;
  std::unique_ptr<Pager> pager_;
  std::unique_ptr<journal::Journal> journal_;
  std::unique_ptr<btree::BTree> object_table_;
  std::unique_ptr<btree::BTree> named_roots_;
  std::unique_ptr<Scrubber> scrubber_;  // Null when checksums are off.

  // Ops hold shared; Checkpoint holds exclusive.
  mutable std::shared_mutex volume_mu_;
  // Protects journal appends and the reservation counters below. Taken after
  // volume_mu_, never before it.
  mutable std::mutex journal_mu_;
  // Signalled whenever reserved space is given back (a credit released, a record
  // appended, a checkpoint done): reservations waiting on held credits re-check.
  std::condition_variable credit_cv_;
  // Per-object sharded reader/writer locks: mutations take the object's shard
  // exclusive, pure readers (Read/Stat/Size/CheckObject) take it shared, so
  // independent objects never contend and readers of one object run in parallel.
  static constexpr size_t kObjectShards = 64;
  mutable ShardedMutex<kObjectShards> object_mu_;

  // Journal reservations (see JournalCredit), guarded by journal_mu_. No checkpoint
  // zeroes what ops in flight hold; only the deferred-foreign estimate resets there.
  uint64_t logical_reserved_ = 0;  // Records reserved but not yet appended.
  uint64_t apply_credits_ = 0;     // Epilogue parts of kApply credits held.
  uint64_t naming_credits_ = 0;    // Epilogue parts of kNaming/kContent credits held.
  // The next checkpoint's unapplied-foreign snapshot: the pages the last one took, and
  // a bound on the tree bytes of deferred records appended since (AppendForeign with a
  // callback).
  uint64_t pending_foreign_pages_ = 0;
  uint64_t deferred_foreign_bytes_ = 0;

  // Extent maps of small objects: the whole map of an object whose extent tree is empty
  // or one leaf of at most kMaxMappedExtents extents, filled by Read (object lock shared)
  // and erased by MutateObject and DoDelete (object lock exclusive), which every live and
  // replayed extent change passes through. Never filled during recovery, which reads
  // objects that later replayed records still change, with checksum verification off.
  // Bounded per stripe (StripedMap::PutWithEvict), no global flushes. A stripe lock is a
  // leaf lock, taken under the object lock.
  static constexpr size_t kMaxMappedExtents = 4;
  static constexpr size_t kExtentMapCacheMaxEntries = 1 << 14;
  struct ExtentMap {
    std::array<extent::Extent, kMaxMappedExtents> extents;
    size_t count = 0;
  };
  mutable StripedMap<ObjectId, ExtentMap> extent_maps_;

  std::atomic<uint64_t> next_oid_{1};
  bool in_recovery_ = false;

  // Unapplied-foreign provider (SetUnappliedForeignProvider). Guarded by foreign_mu_
  // so installation can race checkpoints safely.
  std::mutex foreign_mu_;
  UnappliedForeignFn unapplied_foreign_;
  std::function<void()> checkpoint_callback_;  // Also guarded by foreign_mu_.
  std::function<void()> kick_callback_;        // Also guarded by foreign_mu_.

  // Background checkpointer state (StartCheckpointThread).
  std::thread checkpoint_thread_;
  std::mutex ckpt_mu_;
  std::condition_variable ckpt_cv_;
  bool ckpt_requested_ = false;
  bool ckpt_forced_ = false;  // A kick queued by RequestCheckpoint: runs unconditionally.
  bool ckpt_shutdown_ = false;
  // CheckpointerState, maintained by Kick/CheckpointThreadMain.
  std::atomic<int> ckpt_state_{0};

  // Close() bookkeeping. Closed until Create or Open succeeds, so a volume Open refuses
  // is not checkpointed on destruction: its journal keeps the records recovery had
  // not replayed yet.
  mutable std::mutex close_mu_;
  bool closed_ = true;
  Status last_close_status_;
};

}  // namespace osd
}  // namespace hfad

#endif  // HFAD_SRC_OSD_OSD_H_
