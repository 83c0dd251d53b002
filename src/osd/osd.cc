#include "src/osd/osd.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/coding.h"
#include "src/common/metrics.h"
#include "src/common/stats.h"
#include "src/common/trace.h"
#include "src/extent/extent_tree.h"
#include "src/osd/scrubber.h"

namespace hfad {
namespace osd {

namespace {

// Journal record types. Logical records (applied ops) live below 100; foreign records
// (higher layers) are 100; checkpoint-epilogue records live at 200+.
constexpr uint8_t kRtCreate = 1;
constexpr uint8_t kRtDelete = 2;
constexpr uint8_t kRtWrite = 3;
constexpr uint8_t kRtInsert = 4;
constexpr uint8_t kRtRemoveRange = 5;
constexpr uint8_t kRtTruncate = 6;
constexpr uint8_t kRtSetAttr = 7;
constexpr uint8_t kRtForeign = 100;
constexpr uint8_t kRtPageImage = 200;
constexpr uint8_t kRtAllocSnapshot = 201;
constexpr uint8_t kRtCheckpointCommit = 202;

// Journal bytes one dirty page takes in a checkpoint epilogue (a page-image record).
constexpr uint64_t kPageImageBytes = journal::kRecordHeaderSize + 1 + 8 + kPageSize;
// Allocator-snapshot bytes one live allocation may take (varint offset and order).
constexpr uint64_t kAllocEntryBytes = 16;
// Journal bytes a credit reserves per page it may dirty: the page's image, and the
// snapshot entry the page adds when it is new.
constexpr uint64_t kPageCredit = kPageImageBytes + kAllocEntryBytes;
// Framing of the epilogue's allocator-snapshot and commit records: two headers, the
// types, the snapshot's entry count and the commit's three fixed64 fields.
constexpr uint64_t kEpilogueFraming = 2 * journal::kRecordHeaderSize + 64;
// Epilogue credit for full-text indexing of one record (kContent).
constexpr uint64_t kContentCredit = 64 * 1024;
// Backstop checkpoints one reservation may run before it gives up with NoSpace.
constexpr int kMaxBackstopCheckpoints = 8;

uint64_t DivCeil(uint64_t a, uint64_t b) { return (a + b - 1) / b; }

// Pages one btree Put or Delete can dirty in a tree of height h: the root-to-leaf path,
// one new page per level it splits plus a new root, and the right sibling whose back
// link a leaf split rewrites.
uint64_t PutPages(int h) { return 2 * static_cast<uint64_t>(h) + 2; }

// Pages splicing k fresh extents into one spot of an extent tree of height h can dirty:
// the root-to-leaf path, and per leaf split one new page per level plus a new root. A
// split leaves at most 128 of a leaf's 254 entries beside the splice point, so each
// further split takes at least 126 more extents.
uint64_t SplicePages(int h, uint64_t k) {
  if (k == 0) {
    return 0;
  }
  const uint64_t levels = static_cast<uint64_t>(h);
  return levels + (levels + 1) * (1 + (k - 1) / 126);
}

// Extents a splice of n bytes writes (extents hold at most kMaxExtentSize bytes).
uint64_t ExtentsFor(uint64_t n) { return DivCeil(n, extent::kMaxExtentSize); }

// Named root of the btree holding journaled-but-unapplied foreign payloads across a
// checkpoint's journal reset (see SetUnappliedForeignProvider).
constexpr char kPendingForeignRoot[] = "osd/pending-foreign";

// A record recovery could not replay. A higher layer's refusal of the volume
// (InvalidArgument from its replay hook, such as a cluster volume without its shard
// stamp) keeps its code, so a caller tells a refused format from damage the same way
// whether the volume closed cleanly or crashed; every other failure is Corruption.
Status ReplayFailure(const std::string& where, const Status& s, bool from_hook) {
  if (from_hook && s.IsInvalidArgument()) {
    return Status::InvalidArgument(where + ": " + s.message());
  }
  return Status::Corruption(where + ": " + s.ToString());
}

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::system_clock::now().time_since_epoch())
                                   .count());
}

// Object-table key: big-endian OID so that byte order equals numeric order.
std::string OidKey(ObjectId oid) {
  std::string key(8, '\0');
  for (int i = 7; i >= 0; i--) {
    key[i] = static_cast<char>(oid & 0xff);
    oid >>= 8;
  }
  return key;
}

ObjectId OidFromKey(Slice key) {
  ObjectId oid = 0;
  for (size_t i = 0; i < 8 && i < key.size(); i++) {
    oid = (oid << 8) | static_cast<uint8_t>(key[i]);
  }
  return oid;
}

// Object-table record: metadata plus the extent-tree root.
struct ObjectRecord {
  ObjectMeta meta;
  uint64_t extent_root = 0;
};

std::string EncodeRecord(const ObjectRecord& r) {
  std::string out;
  PutVarint32(&out, r.meta.mode);
  PutVarint32(&out, r.meta.uid);
  PutVarint32(&out, r.meta.gid);
  PutFixed64(&out, r.meta.atime_ns);
  PutFixed64(&out, r.meta.mtime_ns);
  PutFixed64(&out, r.meta.ctime_ns);
  PutVarint64(&out, r.meta.size);
  PutFixed64(&out, r.extent_root);
  return out;
}

Result<ObjectRecord> DecodeRecord(Slice in) {
  ObjectRecord r;
  if (!GetVarint32(&in, &r.meta.mode) || !GetVarint32(&in, &r.meta.uid) ||
      !GetVarint32(&in, &r.meta.gid) || !GetFixed64(&in, &r.meta.atime_ns) ||
      !GetFixed64(&in, &r.meta.mtime_ns) || !GetFixed64(&in, &r.meta.ctime_ns) ||
      !GetVarint64(&in, &r.meta.size) || !GetFixed64(&in, &r.extent_root)) {
    return Status::Corruption("undecodable object record");
  }
  return r;
}

}  // namespace

// ---------------------------------------------------------------- construction

Osd::Osd(std::shared_ptr<BlockDevice> device, const OsdOptions& options, Superblock sb)
    : device_(std::move(device)), options_(options), sb_(sb) {}

void Osd::InitStructures() {
  allocator_ = std::make_unique<BuddyAllocator>(sb_.heap_offset, sb_.heap_size);
  pager_ = std::make_unique<Pager>(device_.get(), options_.pager_capacity_pages,
                                   /*no_steal=*/options_.journaling);
  journal_ = std::make_unique<journal::Journal>(device_.get(), sb_.journal_offset,
                                                sb_.journal_size);
  // cksum_offset == 0 means the volume was created with checksums off; it keeps
  // running unverified.
  if (sb_.cksum_offset != 0 && sb_.cksum_size != 0) {
    checksums_ = std::make_unique<PageChecksums>(sb_.device_size, kPageSize);
    pager_->SetChecksums(checksums_.get());
  }
  pager_->SetVolumeHealth(&health_);
  pager_->SetRetryPolicy(options_.retry);
  journal_->SetRetryPolicy(options_.retry);
  object_table_ =
      std::make_unique<btree::BTree>(pager_.get(), allocator_.get(), sb_.object_table_root);
  named_roots_ =
      std::make_unique<btree::BTree>(pager_.get(), allocator_.get(), sb_.index_dir_root);
  if (checksums_) {
    Scrubber::Options sopts;
    sopts.device_size = sb_.device_size;
    sopts.interval_ms = options_.scrub_interval_ms;
    sopts.retry = options_.retry;
    scrubber_ = std::make_unique<Scrubber>(device_.get(), pager_.get(), checksums_.get(),
                                           &health_, sopts);
    scrubber_->SetRepairKick([this] { RequestCheckpoint(); });
  }
  next_oid_.store(sb_.next_oid);
}

Result<std::unique_ptr<Osd>> Osd::Create(std::shared_ptr<BlockDevice> device,
                                         const OsdOptions& options) {
  const uint64_t dev_size = device->Size();
  uint64_t journal_size = options.journal_size;
  if (journal_size == 0) {
    journal_size = dev_size / 8;
    journal_size = std::max<uint64_t>(journal_size, 256 * 1024);
    journal_size = std::min<uint64_t>(journal_size, 64ull * 1024 * 1024);
  }
  journal_size = (journal_size + kPageSize - 1) / kPageSize * kPageSize;

  // The checksum region holds one 8-byte entry per device page (plus header and
  // CRC), page-rounded; it sits between the journal and the heap.
  uint64_t cksum_area = 0;
  if (options.page_checksums) {
    cksum_area = (PageChecksums::SerializedSize(dev_size, kPageSize) + kPageSize - 1) /
                 kPageSize * kPageSize;
  }

  // Heap is the largest power of two that fits after the fixed regions. The allocator
  // snapshot area must hold one entry (~16 B) per minimum-size allocation.
  uint64_t heap_size = kPageSize;
  uint64_t alloc_area = 0;
  uint64_t heap_offset = 0;
  for (uint64_t trial = kPageSize; ; trial *= 2) {
    uint64_t area = std::max<uint64_t>(64 * 1024, trial / 256);
    area = (area + kPageSize - 1) / kPageSize * kPageSize;
    uint64_t off = Superblock::kSuperblockSize + area + journal_size + cksum_area;
    if (off + trial > dev_size) {
      break;
    }
    heap_size = trial;
    alloc_area = area;
    heap_offset = off;
  }
  if (heap_offset == 0 || heap_size < 4 * kPageSize) {
    return Status::InvalidArgument("device too small for an hFAD volume (" +
                                   std::to_string(dev_size) + " bytes)");
  }

  Superblock sb;
  sb.device_size = dev_size;
  sb.alloc_area_offset = Superblock::kSuperblockSize;
  sb.alloc_area_size = alloc_area;
  sb.alloc_snapshot_size = 0;
  sb.journal_offset = Superblock::kSuperblockSize + alloc_area;
  sb.journal_size = journal_size;
  sb.heap_offset = heap_offset;
  sb.heap_size = heap_size;
  if (options.page_checksums) {
    sb.cksum_offset = Superblock::kSuperblockSize + alloc_area + journal_size;
    sb.cksum_size = cksum_area;
    sb.cksum_generation = 0;  // First checkpoint bumps to 1 and persists the table.
  }

  std::unique_ptr<Osd> osd(new Osd(std::move(device), options, sb));
  osd->InitStructures();
  HFAD_RETURN_IF_ERROR(osd->journal_->Reset());
  HFAD_RETURN_IF_ERROR(osd->CheckpointLocked());
  osd->closed_ = false;
  osd->StartCheckpointThread();
  if (osd->scrubber_) {
    osd->scrubber_->Start();
  }
  return osd;
}

Result<std::unique_ptr<Osd>> Osd::Open(std::shared_ptr<BlockDevice> device,
                                       const OsdOptions& options,
                                       ForeignReplayFn replay_foreign) {
  // Open-path reads retry like runtime reads: a transient fault while mounting
  // should not fail the whole volume.
  std::string buf;
  HFAD_RETURN_IF_ERROR(options.retry.RunWithRetry(
      [&] { return device->Read(0, Superblock::kSuperblockSize, &buf); }));
  HFAD_ASSIGN_OR_RETURN(Superblock sb, Superblock::Decode(buf));
  if (sb.device_size != device->Size()) {
    return Status::Corruption("superblock device size mismatch");
  }

  std::unique_ptr<Osd> osd(new Osd(std::move(device), options, sb));
  osd->InitStructures();

  // Restore the allocator to the last checkpoint's state. A decode failure is
  // deferred, not fatal yet: a crash between the in-place alloc-area write and
  // the superblock commit leaves the OLD superblock's snapshot size pointing at
  // NEW area bytes, and the journal's checkpoint epilogue (durable before any
  // in-place write) carries the authoritative snapshot that replay redoes below.
  Status alloc_restore;
  if (sb.alloc_snapshot_size > 0) {
    std::string snap;
    alloc_restore = options.retry.RunWithRetry([&] {
      return osd->device_->Read(sb.alloc_area_offset, sb.alloc_snapshot_size, &snap);
    });
    if (alloc_restore.ok()) {
      alloc_restore = osd->allocator_->Deserialize(snap);
    }
  }

  // Load the persisted checksum table. ANY failure — torn region, rotted region
  // bytes, a generation left stale by a crash between the region write and the
  // superblock commit — degrades to an absent table: pages go unverified until
  // the next checkpoint re-persists, never falsely rejected.
  if (osd->checksums_ && sb.cksum_generation > 0) {
    uint64_t table_size = PageChecksums::SerializedSize(sb.device_size, kPageSize);
    std::string table;
    if (table_size <= sb.cksum_size &&
        options.retry
            .RunWithRetry(
                [&] { return osd->device_->Read(sb.cksum_offset, table_size, &table); })
            .ok()) {
      (void)osd->checksums_->Deserialize(Slice(table), sb.cksum_generation);
    }
  }

  // Scan the journal. The LAST complete checkpoint epilogue (ending in a commit
  // record) is redone physically; logical records after it are replayed on top.
  // Epilogue records with no commit record behind them — a checkpoint torn mid-commit —
  // are skipped entirely: the logical records preceding them describe the same state.
  std::vector<std::pair<uint64_t, std::string>> records;
  HFAD_RETURN_IF_ERROR(osd->journal_
                           ->Recover([&](uint64_t seq, Slice payload) {
                             records.emplace_back(seq, payload.ToString());
                           })
                           .status());

  size_t replay_from = 0;  // First record index NOT covered by a redone checkpoint.
  for (size_t i = 0; i < records.size(); i++) {
    if (!records[i].second.empty() &&
        static_cast<uint8_t>(records[i].second[0]) == kRtCheckpointCommit) {
      replay_from = i + 1;
    }
  }

  if (!alloc_restore.ok()) {
    // Only redo can rebuild the allocator now; without a journaled snapshot in
    // the covered epilogue the volume is genuinely corrupt.
    bool snapshot_in_redo = false;
    for (size_t i = 0; i < replay_from && !snapshot_in_redo; i++) {
      snapshot_in_redo = !records[i].second.empty() &&
                         static_cast<uint8_t>(records[i].second[0]) == kRtAllocSnapshot;
    }
    if (!snapshot_in_redo) {
      return alloc_restore;
    }
  }

  // Replay rewrites pages whose persisted CRCs are legitimately stale (a
  // force-synced raw overwrite changed device bytes after the table was
  // persisted); reads during replay must not trip over them. Stamping stays on,
  // so the table is consistent again once replay finishes.
  if (osd->checksums_ && !records.empty()) {
    osd->checksums_->set_verify_enabled(false);
  }

  if (replay_from > 0) {
    // Redo: write every journaled page image in place, restore the allocator snapshot,
    // then adopt the committed roots. All of it is idempotent.
    for (size_t i = 0; i < replay_from; i++) {
      Slice in(records[i].second);
      uint8_t type = static_cast<uint8_t>(in[0]);
      in.RemovePrefix(1);
      if (type == kRtPageImage) {
        uint64_t off;
        if (!GetFixed64(&in, &off) || in.size() != kPageSize) {
          return Status::Corruption("bad page-image record");
        }
        HFAD_RETURN_IF_ERROR(osd->device_->Write(off, in));
        if (osd->checksums_) {
          // The image IS the page's full content: restamp rather than dropping
          // coverage (this device write bypasses the pager's stamping paths).
          osd->checksums_->Stamp(off, in);
        }
      } else if (type == kRtAllocSnapshot) {
        HFAD_RETURN_IF_ERROR(osd->allocator_->Deserialize(in.ToString()));
        HFAD_RETURN_IF_ERROR(osd->device_->Write(osd->sb_.alloc_area_offset, in));
        osd->sb_.alloc_snapshot_size = in.size();
        if (osd->checksums_) {
          // The redo writes only the snapshot bytes; trailing area pages keep
          // whatever the interrupted checkpoint left. The final checkpoint below
          // rewrites the padded area and restamps.
          osd->checksums_->InvalidateRange(osd->sb_.alloc_area_offset,
                                           osd->sb_.alloc_area_size);
        }
      } else if (type == kRtCheckpointCommit) {
        uint64_t table_root, named_root, next_oid;
        if (!GetFixed64(&in, &table_root) || !GetFixed64(&in, &named_root) ||
            !GetFixed64(&in, &next_oid)) {
          return Status::Corruption("bad checkpoint-commit record");
        }
        osd->sb_.object_table_root = table_root;
        osd->sb_.index_dir_root = named_root;
        osd->sb_.next_oid = next_oid;
      }
      // Logical records covered by the epilogue are already contained in the images.
    }
    HFAD_RETURN_IF_ERROR(osd->device_->Write(0, osd->sb_.Encode()));
    HFAD_RETURN_IF_ERROR(osd->device_->Sync());
    // Re-open the btrees on the committed roots. The journal is deliberately NOT reset
    // yet: until the final checkpoint below lands, a crash during the remaining
    // recovery must still find every record. (The page cache is untouched so far —
    // recovery IO above went straight to the device — so no stale pages to drop.)
    osd->object_table_ = std::make_unique<btree::BTree>(
        osd->pager_.get(), osd->allocator_.get(), osd->sb_.object_table_root);
    osd->named_roots_ = std::make_unique<btree::BTree>(
        osd->pager_.get(), osd->allocator_.get(), osd->sb_.index_dir_root);
    osd->next_oid_.store(osd->sb_.next_oid);
  }

  osd->in_recovery_ = true;

  // Feed the last checkpoint's persisted unapplied-foreign set through the replay hook
  // BEFORE the logical suffix: those intents were journaled before every record the
  // journal still holds, so per-key ordering is preserved.
  {
    auto raw = osd->named_roots_->Get(kPendingForeignRoot);
    if (raw.ok()) {
      if (raw->size() != 8) {
        osd->in_recovery_ = false;
        return Status::Corruption("bad pending-foreign root entry");
      }
      uint64_t proot = DecodeFixed64(reinterpret_cast<const uint8_t*>(raw->data()));
      if (proot != 0) {
        btree::BTree tree(osd->pager_.get(), osd->allocator_.get(), proot);
        std::vector<std::string> payloads;
        Status s = tree.Scan(Slice(), Slice(), [&](Slice, Slice value) {
          payloads.push_back(value.ToString());
          return true;
        });
        if (!s.ok()) {
          osd->in_recovery_ = false;
          return s;
        }
        if (!payloads.empty() && replay_foreign == nullptr) {
          osd->in_recovery_ = false;
          return Status::Corruption("persisted foreign intents but no replay hook");
        }
        for (const std::string& p : payloads) {
          s = replay_foreign(osd.get(), Slice(p));
          if (!s.ok()) {
            osd->in_recovery_ = false;
            return ReplayFailure("pending-foreign replay failed", s, /*from_hook=*/true);
          }
        }
      }
    } else if (!raw.status().IsNotFound()) {
      osd->in_recovery_ = false;
      return raw.status();
    }
  }

  // Replay logical records past the last complete checkpoint, skipping any epilogue
  // prefix a torn later checkpoint attempt left behind (its page images are redundant
  // with the logical records already replayed).
  for (size_t i = replay_from; i < records.size(); i++) {
    const auto& [seq, payload] = records[i];
    const uint8_t type = payload.empty() ? 0 : static_cast<uint8_t>(payload[0]);
    if (type == kRtPageImage || type == kRtAllocSnapshot) {
      continue;
    }
    Status s = osd->ReplayRecord(Slice(payload), replay_foreign);
    if (!s.ok()) {
      osd->in_recovery_ = false;
      return ReplayFailure("journal replay failed at seq " + std::to_string(seq), s,
                           /*from_hook=*/type == kRtForeign);
    }
  }
  if (osd->checksums_) {
    // Every stale entry has been restamped by now (redo images directly, raw
    // overwrites by their replayed — force-synced, hence present — records).
    osd->checksums_->set_verify_enabled(true);
  }
  // Make the recovered state the new checkpoint; only its success empties the journal,
  // so a crash inside it still finds every record next time. One pathological escape:
  // if the surviving journal content leaves no room for this checkpoint's epilogue,
  // empty the journal first — the physical redo above is already durable, so only ops
  // replayed from the logical suffix would be exposed to a crash inside the retry.
  // (Still in recovery: the journal replayed here was never under the live accounting,
  // so a miss is NoSpace, not an overflow.)
  Status ck = osd->CheckpointLocked();
  if (ck.IsNoSpace()) {
    HFAD_RETURN_IF_ERROR(osd->journal_->Reset());
    ck = osd->CheckpointLocked();
  }
  osd->in_recovery_ = false;
  HFAD_RETURN_IF_ERROR(ck);
  // Report both tables' heights before the first op sizes a credit from the bound (not
  // earlier: a page read before the redo above would cache what the redo overwrites).
  // An unreadable page surfaces on the first real access instead.
  (void)osd->object_table_->Height();
  (void)osd->named_roots_->Height();
  osd->closed_ = false;
  osd->StartCheckpointThread();
  if (osd->scrubber_) {
    osd->scrubber_->Start();
  }
  return osd;
}

Osd::~Osd() {
  // Best effort: make acknowledged state durable on clean shutdown. Close() retains the
  // outcome in last_close_status() and counts failures into stats — a destructor cannot
  // return the error, but it must not vanish either.
  (void)Close();
}

Status Osd::Close() {
  {
    std::lock_guard<std::mutex> lock(close_mu_);
    if (closed_) {
      return last_close_status_;
    }
    closed_ = true;
  }
  if (scrubber_) {
    scrubber_->Stop();  // Before the checkpointer: a repair kick must find it alive or gone.
  }
  StopCheckpointThread();
  Status s = Checkpoint();
  {
    std::lock_guard<std::mutex> lock(close_mu_);
    last_close_status_ = s;
  }
  if (!s.ok()) {
    stats::Add(stats::Counter::kOsdCloseErrors);
  }
  return s;
}

Status Osd::last_close_status() const {
  std::lock_guard<std::mutex> lock(close_mu_);
  return last_close_status_;
}

// ------------------------------------------------------- background checkpointer

void Osd::StartCheckpointThread() {
  if (!options_.journaling || options_.checkpoint_kick_occupancy <= 0 ||
      options_.checkpoint_kick_occupancy >= 1) {
    return;
  }
  ckpt_state_.store(static_cast<int>(CheckpointerState::kIdle),
                    std::memory_order_relaxed);
  checkpoint_thread_ = std::thread([this] { CheckpointThreadMain(); });
}

void Osd::StopCheckpointThread() {
  {
    std::lock_guard<std::mutex> lock(ckpt_mu_);
    ckpt_shutdown_ = true;
  }
  ckpt_cv_.notify_all();
  if (checkpoint_thread_.joinable()) {
    checkpoint_thread_.join();
  }
  ckpt_state_.store(static_cast<int>(CheckpointerState::kDisabled),
                    std::memory_order_relaxed);
}

void Osd::CheckpointThreadMain() {
  for (;;) {
    bool recheck = false;
    {
      std::unique_lock<std::mutex> lock(ckpt_mu_);
      // A kick already here arrived while the previous checkpoint ran.
      const bool queued = ckpt_requested_;
      ckpt_state_.store(static_cast<int>(queued ? CheckpointerState::kKicked
                                                : CheckpointerState::kIdle),
                        std::memory_order_relaxed);
      ckpt_cv_.wait(lock, [&] { return ckpt_requested_ || ckpt_shutdown_; });
      if (ckpt_shutdown_) {
        return;
      }
      recheck = queued && !ckpt_forced_;
      ckpt_requested_ = false;
      ckpt_forced_ = false;
      ckpt_state_.store(static_cast<int>(CheckpointerState::kRunning),
                        std::memory_order_relaxed);
    }
    if (recheck) {
      std::lock_guard<std::mutex> lock(journal_mu_);
      if (FillLocked().total < KickBytes()) {
        continue;  // The checkpoint that ran meanwhile already made the room.
      }
    }
    // An IO error here is not fatal to ops: the journal simply keeps filling and the
    // synchronous backstop in Reserve reports it on the op path.
    trace::OpScope op("bg_checkpoint");
    (void)Checkpoint();
  }
}

// ---------------------------------------------------------------- health gates

Status Osd::CheckWritable() const {
  HealthState s = health_.state();
  if (s == HealthState::kFailed) {
    return Status::IoError("volume failed: " + health_.reason());
  }
  if (s == HealthState::kReadOnly) {
    return Status::ReadOnly("volume is read-only: " + health_.reason());
  }
  return Status::Ok();
}

Status Osd::CheckReadable() const {
  if (!health_.readable()) {
    return Status::IoError("volume failed: " + health_.reason());
  }
  return Status::Ok();
}

void Osd::ReconcileChecksumsWithAllocator() {
  if (!checksums_) {
    return;
  }
  uint64_t pos = sb_.heap_offset;
  const uint64_t heap_end = sb_.heap_offset + sb_.heap_size;
  for (const auto& ext : allocator_->LiveExtents()) {  // Sorted by offset.
    if (ext.offset > pos) {
      checksums_->InvalidateRange(pos, ext.offset - pos);
    }
    pos = ext.offset + ext.length;
  }
  if (heap_end > pos) {
    checksums_->InvalidateRange(pos, heap_end - pos);
  }
}

Status Osd::ScrubNow(ScrubReport* report) {
  if (!scrubber_) {
    if (report != nullptr) {
      *report = ScrubReport{};
    }
    return Status::Ok();  // No checksums: nothing to scrub against.
  }
  return scrubber_->ScrubPass(report);
}

// ---------------------------------------------------------------- journaling core

Osd::JournalCredit& Osd::JournalCredit::operator=(JournalCredit&& other) noexcept {
  if (this != &other) {
    Release();
    osd_ = std::exchange(other.osd_, nullptr);
    logical_ = std::exchange(other.logical_, 0);
    epilogue_ = std::exchange(other.epilogue_, 0);
    use_ = other.use_;
  }
  return *this;
}

void Osd::JournalCredit::Release() {
  if (osd_ != nullptr) {
    osd_->ReleaseCredit(this);
    osd_ = nullptr;
  }
}

void Osd::ReleaseCredit(JournalCredit* credit) {
  {
    std::lock_guard<std::mutex> lock(journal_mu_);
    logical_reserved_ -= credit->logical_;
    if (credit->use_ == CreditUse::kApply) {
      apply_credits_ -= credit->epilogue_;
    } else {
      naming_credits_ -= credit->epilogue_;
    }
  }
  credit->logical_ = 0;
  credit->epilogue_ = 0;
  credit_cv_.notify_all();
}

Osd::Fill Osd::FillLocked() const {
  const uint64_t capacity = sb_.journal_size - journal::kRecordHeaderSize;
  const uint64_t used = capacity - std::min(capacity, journal_->SpaceRemaining());
  uint64_t deferred_pages = 0;
  if (deferred_foreign_bytes_ > 0) {
    // A snapshot tree built by appends has leaves at least half full, each interior
    // page routes at least 64 of them, and re-registering its root is one Put.
    const uint64_t leaves = DivCeil(deferred_foreign_bytes_, (kPageSize - 64) / 2);
    deferred_pages = leaves + DivCeil(leaves, 64) + PutPages(pager_->tree_height_bound());
  }
  Fill fill;
  fill.floor = allocator_->allocation_count() * kAllocEntryBytes + kEpilogueFraming +
               pending_foreign_pages_ * kPageImageBytes;
  // The deferred records' bound is reclaimable: the checkpoint that snapshots them
  // measures the pages afresh, and their retention may have been trimmed since.
  fill.reclaimable = used + (pager_->dirty_pages() + deferred_pages) * kPageImageBytes;
  fill.total = fill.reclaimable + fill.floor + logical_reserved_ + apply_credits_ +
               naming_credits_;
  return fill;
}

Result<Osd::JournalCredit> Osd::Reserve(uint64_t logical, uint64_t epilogue,
                                        CreditUse use) {
  JournalCredit credit;
  if (!options_.journaling || in_recovery_) {
    return credit;
  }
  const uint64_t capacity = sb_.journal_size - journal::kRecordHeaderSize;
  const bool naming = use != CreditUse::kApply;
  if (naming) {
    // A lone naming credit may exceed the quarter cap, but never half the journal: it
    // must still fit beside its own record. The per-Put bound is far above what a big
    // batch really dirties, and the checkpoint's own fit check stays the backstop.
    epilogue = std::min(epilogue, capacity / 2);
  }
  const uint64_t need = logical + epilogue;
  // Refused only when it cannot fit an empty journal: a record beside the naming
  // credits its op may hold (at most half the journal), anything else on its own. Below,
  // also when it cannot fit beside the floor a checkpoint leaves behind.
  const uint64_t beside = logical > 0 ? capacity / 2 : 0;
  auto never_fits = [&] {
    return Status::InvalidArgument("a reservation of " + std::to_string(need) +
                                   " bytes can never fit the " +
                                   std::to_string(sb_.journal_size) + "-byte journal");
  };
  if (need + beside + kEpilogueFraming > capacity) {
    return never_fits();
  }
  const uint64_t kick_bytes = KickBytes();
  bool kick = false;
  std::unique_lock<std::mutex> lock(journal_mu_);
  // The naming cap: a quarter of what a checkpoint leaves beside its floor, so a
  // record fits beside the naming credits once a checkpoint has run and the apply
  // credits are back, and none of the waits below can deadlock. Re-checked wherever
  // journal_mu_ was let go.
  auto over_cap = [&](const Fill& fill) {
    const uint64_t room = capacity - std::min(capacity, fill.floor);
    return naming && naming_credits_ > 0 && naming_credits_ + epilogue > room / 4;
  };
  auto take = [&](const Fill& fill) {
    if (over_cap(fill) || fill.total + need > capacity) {
      return false;
    }
    logical_reserved_ += logical;
    (naming ? naming_credits_ : apply_credits_) += epilogue;
    credit.osd_ = this;
    credit.logical_ = logical;
    credit.epilogue_ = epilogue;
    credit.use_ = use;
    kick = fill.total + need >= kick_bytes;
    return true;
  };
  for (int checkpoints = 0;;) {
    const Fill fill = FillLocked();
    if (need + fill.floor > capacity) {
      return never_fits();
    }
    if (over_cap(fill)) {
      credit_cv_.wait(lock);  // Wait holding nothing.
      continue;
    }
    if (take(fill)) {
      break;
    }
    // Credits whose holders never wait on another reservation can be waited for. A
    // record or naming credit never waits on naming credits: their holders may be
    // waiting on it.
    const uint64_t waitable =
        logical_reserved_ + apply_credits_ + (naming || logical > 0 ? 0 : naming_credits_);
    if (fill.reclaimable > 0 &&
        (waitable == 0 || fill.total - fill.reclaimable + need <= capacity)) {
      // The backstop: appended bytes, dirty pages or the deferred records' bound stand
      // in the way. Checkpoint and re-reserve while still holding the volume lock, so
      // rival threads cannot refill the journal first and starve this op.
      if (checkpoints++ == kMaxBackstopCheckpoints) {
        return Status::NoSpace("journal cannot accommodate " + std::to_string(need) +
                               " bytes even after checkpoint");
      }
      lock.unlock();
      std::unique_lock<std::shared_mutex> vlock(volume_mu_);
      lock.lock();
      const Fill queued = FillLocked();
      if (over_cap(queued)) {
        continue;
      }
      if (take(queued)) {
        break;  // A checkpoint that ran while this one queued for the lock made room.
      }
      lock.unlock();
      Status s = CheckpointInline();
      lock.lock();
      HFAD_RETURN_IF_ERROR(s);
      if (take(FillLocked())) {
        break;
      }
      continue;
    }
    if (waitable == 0) {
      // Only the floor and naming credits stand in the way.
      return Status::NoSpace("journal cannot accommodate " + std::to_string(need) +
                             " bytes beside the credits held");
    }
    credit_cv_.wait(lock);  // Only credits held by others stand in the way.
  }
  lock.unlock();
  if (kick) {
    Kick(/*on_fill=*/true);
  }
  return credit;
}

Result<Osd::JournalCredit> Osd::ReserveApplyCredit(CreditUse use, size_t mutations) {
  HFAD_RETURN_IF_ERROR(CheckWritable());
  const uint64_t epilogue =
      use == CreditUse::kContent
          ? kContentCredit
          : mutations * PutPages(pager_->tree_height_bound()) * kPageCredit;
  return Reserve(0, epilogue, use);
}

size_t Osd::MaxCreditMutations() const {
  const uint64_t quarter = (sb_.journal_size - journal::kRecordHeaderSize) / 4;
  return std::max<size_t>(1, quarter / (PutPages(pager_->tree_height_bound()) * kPageCredit));
}

uint64_t Osd::CreditEpilogue(const OpCost& cost) const {
  const int h = pager_->tree_height_bound();
  // One object-table Put or Delete; the splice; and for a cut, the path it shrinks at
  // the cut's start and the two boundary paths of the extents it drops.
  const uint64_t pages = PutPages(h) + SplicePages(h, cost.fresh_extents) +
                         (cost.cuts ? 3 * static_cast<uint64_t>(h) : 0);
  return pages * kPageCredit + cost.fresh_extents * kAllocEntryBytes;
}

Status Osd::JournalRecord(JournalCredit* credit, Slice payload, bool force_sync,
                          bool deferred) {
  uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> lock(journal_mu_);
    logical_reserved_ -= credit->logical_;
    credit->logical_ = 0;
    if (deferred) {
      // The record may come back in the next snapshot as its retained copy plus one
      // re-framed intent per op it carries, each a tree cell with an 8-byte key: for
      // ops of at least 8 bytes, at most four times the record plus one cell.
      deferred_foreign_bytes_ += 4 * payload.size() + 16;
    }
    auto seq_or = journal_->Append(payload);
    if (!seq_or.ok()) {
      return seq_or.status();
    }
    seq = *seq_or;
  }
  credit_cv_.notify_all();
  if (force_sync || !options_.group_commit) {
    // Outside journal_mu_: the journal's commit chain does the fsync, and concurrent
    // appenders must be able to ride (or simply ignore) it.
    return journal_->CommitThrough(seq);
  }
  return Status::Ok();
}

Status Osd::JournalThenApply(ObjectId oid, OpCost cost, const PrepareFn& prepare,
                             const ApplyFn& apply) {
  HFAD_RETURN_IF_ERROR(CheckWritable());
  if (!options_.journaling || in_recovery_) {
    std::shared_lock<std::shared_mutex> vlock(volume_mu_);
    auto olock = object_mu_.LockExclusive(oid);
    return apply(NowNs());
  }
  for (;;) {
    const uint64_t epilogue = CreditEpilogue(cost);
    Result<JournalCredit> credit =
        Reserve(cost.record_bytes + journal::kRecordHeaderSize, epilogue, CreditUse::kApply);
    if (credit.status().IsInvalidArgument()) {
      // Too large to journal beside its epilogue: apply under the exclusive lock and
      // checkpoint at once, so no later record can depend on unjournaled state.
      HFAD_ASSIGN_OR_RETURN(JournalCredit apply_credit, Reserve(0, epilogue, CreditUse::kApply));
      std::unique_lock<std::shared_mutex> vlock(volume_mu_);
      HFAD_RETURN_IF_ERROR(apply(NowNs()));
      return CheckpointInline();
    }
    HFAD_RETURN_IF_ERROR(credit.status());
    std::shared_lock<std::shared_mutex> vlock(volume_mu_);
    auto olock = object_mu_.LockExclusive(oid);
    const uint64_t now = NowNs();
    std::string record;
    bool force_sync = false;
    HFAD_RETURN_IF_ERROR(prepare(now, &cost, &record, &force_sync));
    if (CreditEpilogue(cost) > epilogue) {
      continue;  // A taller tree or a larger splice than credited: re-reserve.
    }
    HFAD_RETURN_IF_ERROR(JournalRecord(&*credit, record, force_sync));
    return apply(now);
  }
}

// Object size with the object + volume locks already held.
Result<uint64_t> Osd::LockedSize(ObjectId oid) const {
  HFAD_ASSIGN_OR_RETURN(std::string raw, object_table_->Get(OidKey(oid)));
  HFAD_ASSIGN_OR_RETURN(ObjectRecord rec, DecodeRecord(raw));
  extent::ExtentTree tree(pager_.get(), allocator_.get(), rec.extent_root);
  HFAD_RETURN_IF_ERROR(tree.Height().status());
  return rec.meta.size;
}

Status Osd::PersistUnappliedForeign() {
  UnappliedForeignFn provider;
  {
    std::lock_guard<std::mutex> lock(foreign_mu_);
    provider = unapplied_foreign_;
  }
  if (!provider) {
    // No layer defers application — or it has not mounted yet, in which case the tree
    // still holds the last accurate snapshot and must not be cleared.
    return Status::Ok();
  }
  std::vector<std::string> payloads = provider();
  uint64_t root = 0;
  auto raw = named_roots_->Get(kPendingForeignRoot);
  if (raw.ok()) {
    if (raw->size() != 8) {
      return Status::Corruption("bad pending-foreign root entry");
    }
    root = DecodeFixed64(reinterpret_cast<const uint8_t*>(raw->data()));
  } else if (!raw.status().IsNotFound()) {
    return raw.status();
  }
  if (payloads.empty() && root == 0) {
    return Status::Ok();  // Nothing pending and nothing persisted: zero overhead.
  }
  btree::BTree tree(pager_.get(), allocator_.get(), root);
  HFAD_RETURN_IF_ERROR(tree.Clear());
  for (size_t i = 0; i < payloads.size(); i++) {
    // Big-endian index keys keep journal order under the btree's byte order.
    HFAD_RETURN_IF_ERROR(tree.Put(OidKey(i), payloads[i]));
  }
  if (tree.root() != root) {
    std::string value(8, '\0');
    EncodeFixed64(reinterpret_cast<uint8_t*>(value.data()), tree.root());
    HFAD_RETURN_IF_ERROR(named_roots_->Put(kPendingForeignRoot, value));
  }
  return Status::Ok();
}

Status Osd::CheckpointLocked() {
  metrics::ScopedLatency latency(metrics::Hist::kCheckpoint);
  trace::SpanScope span("checkpoint");
  // Callers hold volume_mu_ exclusively (or are single-threaded construction paths).
  // Persist the unapplied foreign set FIRST: the rewritten btree pages are dirty by the
  // time the epilogue below collects page images, so the snapshot commits (or not)
  // atomically with this checkpoint — the journal reset at the end can then never
  // orphan an acknowledged-but-unapplied intent. The pages it dirties are what the
  // next checkpoint's snapshot is accounted at until then.
  const size_t dirty_before = pager_->dirty_pages();
  HFAD_RETURN_IF_ERROR(PersistUnappliedForeign());
  const size_t dirty_after = pager_->dirty_pages();
  const uint64_t snapshot_pages = dirty_after > dirty_before ? dirty_after - dirty_before : 0;
  if (options_.journaling) {
    HFAD_RETURN_IF_ERROR(journal_->Commit());
  }

  std::string alloc_snap = allocator_->Serialize();
  if (alloc_snap.size() > sb_.alloc_area_size) {
    return Status::Internal("allocator snapshot (" + std::to_string(alloc_snap.size()) +
                            " bytes) exceeds the snapshot area");
  }

  if (options_.journaling) {
    // Epilogue: journal every dirty page image, the allocator snapshot, and the commit
    // record; one group commit makes the checkpoint redo-able.
    std::vector<std::pair<uint64_t, std::string>> dirty;
    pager_->CollectDirty(&dirty);
    // Check the whole epilogue fits before appending any of it: a partial epilogue
    // would only strand the journal. The reservation accounting promises room.
    const uint64_t epilogue = dirty.size() * kPageImageBytes +
                              (journal::kRecordHeaderSize + 1 + alloc_snap.size()) +
                              (journal::kRecordHeaderSize + 1 + 3 * 8);
    const uint64_t room = journal_->SpaceRemaining();
    if (epilogue > room) {
      const std::string what = "checkpoint epilogue of " + std::to_string(epilogue) +
                               " bytes exceeds the " + std::to_string(room) +
                               " bytes left in the journal";
      if (in_recovery_) {
        return Status::NoSpace(what);
      }
      stats::Add(stats::Counter::kCheckpointEpilogueOverflows);
      return Status::Internal(what);
    }
    for (const auto& [off, image] : dirty) {
      std::string rec;
      rec.push_back(static_cast<char>(kRtPageImage));
      PutFixed64(&rec, off);
      rec.append(image);
      HFAD_RETURN_IF_ERROR(journal_->Append(rec).status());
    }
    std::string snap_rec;
    snap_rec.push_back(static_cast<char>(kRtAllocSnapshot));
    snap_rec.append(alloc_snap);
    HFAD_RETURN_IF_ERROR(journal_->Append(snap_rec).status());
    std::string commit_rec;
    commit_rec.push_back(static_cast<char>(kRtCheckpointCommit));
    PutFixed64(&commit_rec, object_table_->root());
    PutFixed64(&commit_rec, named_roots_->root());
    PutFixed64(&commit_rec, next_oid_.load());
    HFAD_RETURN_IF_ERROR(journal_->Append(commit_rec).status());
    HFAD_RETURN_IF_ERROR(journal_->Commit());
  }

  // In-place phase: now redo-able from the journal if we crash. A persistent IO
  // failure here means durability can no longer be promised — the volume goes
  // read-only (reads and Finds keep serving off the intact last checkpoint).
  Status in_place = [&]() -> Status {
    HFAD_RETURN_IF_ERROR(pager_->Flush());
    if (checksums_ != nullptr) {
      // Write the snapshot padded to whole pages and stamp them, so the alloc
      // area is under scrub/verify coverage like any heap page.
      std::string padded = alloc_snap;
      padded.resize((padded.size() + kPageSize - 1) / kPageSize * kPageSize, '\0');
      HFAD_RETURN_IF_ERROR(options_.retry.RunWithRetry(
          [&] { return device_->Write(sb_.alloc_area_offset, Slice(padded)); }));
      for (uint64_t off = 0; off < padded.size(); off += kPageSize) {
        checksums_->Stamp(sb_.alloc_area_offset + off, Slice(padded.data() + off, kPageSize));
      }
    } else {
      HFAD_RETURN_IF_ERROR(options_.retry.RunWithRetry(
          [&] { return device_->Write(sb_.alloc_area_offset, Slice(alloc_snap)); }));
    }
    sb_.alloc_snapshot_size = alloc_snap.size();
    sb_.object_table_root = object_table_->root();
    sb_.index_dir_root = named_roots_->root();
    sb_.next_oid = next_oid_.load();
    if (checksums_ != nullptr) {
      // Drop entries for heap pages the allocator no longer considers live: a
      // post-checkpoint raw write whose record never committed leaves device
      // bytes under a stale CRC, but its extent shows as free after recovery —
      // so free pages must carry no entry in the persisted table.
      ReconcileChecksumsWithAllocator();
      // Region before superblock: a crash in between leaves the superblock
      // holding the old generation, so the new region is dropped at Open —
      // never trusted half-written.
      sb_.cksum_generation++;
      std::string table = checksums_->Serialize(sb_.cksum_generation);
      HFAD_RETURN_IF_ERROR(options_.retry.RunWithRetry(
          [&] { return device_->Write(sb_.cksum_offset, Slice(table)); }));
    }
    HFAD_RETURN_IF_ERROR(options_.retry.RunWithRetry(
        [&] { return device_->Write(0, sb_.Encode()); }));
    return options_.retry.RunWithRetry([&] { return device_->Sync(); });
  }();
  if (!in_place.ok()) {
    if (in_place.IsIoError()) {
      health_.Escalate(HealthState::kReadOnly,
                       "checkpoint in-place phase failed: " + in_place.ToString());
    }
    return in_place;
  }

  if (options_.journaling) {
    HFAD_RETURN_IF_ERROR(journal_->Reset());
  }
  {
    // Credits ops still hold are theirs: only the estimate this snapshot replaced resets.
    std::lock_guard<std::mutex> lock(journal_mu_);
    deferred_foreign_bytes_ = 0;
    pending_foreign_pages_ = snapshot_pages;
  }
  credit_cv_.notify_all();
  // The checkpoint succeeded: everything applied to this volume before the quiesce is
  // durable. Tell the registered listener (OsdCluster retention trimming) last, still
  // under the exclusive volume lock, so nothing can apply-and-mark between the page
  // flush above and the notification.
  std::function<void()> callback;
  {
    std::lock_guard<std::mutex> lock(foreign_mu_);
    callback = checkpoint_callback_;
  }
  if (callback) {
    callback();
  }
  return Status::Ok();
}

Status Osd::CheckpointInline() {
  stats::Add(stats::Counter::kCheckpointsInline);
  return CheckpointLocked();
}

Status Osd::Checkpoint() {
  // A read-only or failed volume cannot promise durability: reporting success
  // here would let a cluster trim replicated intents a dead shard still needs.
  // (Close() bypasses this gate via CheckpointLocked and surfaces the raw IO
  // error if the device really cannot take the final flush.)
  HFAD_RETURN_IF_ERROR(CheckWritable());
  std::unique_lock<std::shared_mutex> vlock(volume_mu_);
  return CheckpointLocked();
}

Status Osd::Sync() {
  auto done = std::make_shared<std::promise<Status>>();
  std::future<Status> result = done->get_future();
  SyncAsync([done](Status s) { done->set_value(std::move(s)); });
  return result.get();
}

void Osd::SyncAsync(std::function<void(Status)> done) {
  Status s = CheckWritable();
  if (!s.ok() || !options_.journaling) {
    done(s.ok() ? Checkpoint() : std::move(s));
    return;
  }
  // No volume lock and no journal_mu_: a chain link covers the records or a
  // checkpoint's journal reset does (Reset waits until no link is in flight, and no
  // waiter outlives the links).
  journal_->CommitAsync(~uint64_t{0}, std::move(done));
}

Status Osd::AppendForeign(Slice payload) { return AppendForeign(payload, nullptr); }

Status Osd::AppendForeign(Slice payload, const std::function<void()>& with_lock) {
  HFAD_RETURN_IF_ERROR(CheckWritable());
  if (!options_.journaling) {
    // No record to write (higher layers get checkpoint durability only), but the
    // callback still needs the volume lock so its effect is atomic against a
    // checkpoint's unapplied-foreign snapshot.
    std::shared_lock<std::shared_mutex> vlock(volume_mu_);
    if (with_lock) {
      with_lock();
    }
    return Status::Ok();
  }
  if (in_recovery_) {
    return Status::Ok();  // Replay must not re-journal; recovery seeds the layer itself.
  }
  std::string rec;
  rec.push_back(static_cast<char>(kRtForeign));
  rec.append(payload.data(), payload.size());
  // The record alone: its callbacks dirty no pages, and the apply that follows it runs
  // under the caller's own credit.
  Result<JournalCredit> credit =
      Reserve(rec.size() + journal::kRecordHeaderSize, 0, CreditUse::kApply);
  if (credit.status().IsInvalidArgument()) {
    return Status::InvalidArgument("foreign record too large for the journal");
  }
  HFAD_RETURN_IF_ERROR(credit.status());
  std::shared_lock<std::shared_mutex> vlock(volume_mu_);
  HFAD_RETURN_IF_ERROR(
      JournalRecord(&*credit, rec, /*force_sync=*/false, /*deferred=*/with_lock != nullptr));
  if (with_lock) {
    with_lock();
  }
  return Status::Ok();
}

void Osd::SetUnappliedForeignProvider(UnappliedForeignFn fn) {
  std::lock_guard<std::mutex> lock(foreign_mu_);
  unapplied_foreign_ = std::move(fn);
}

void Osd::SetCheckpointCallback(std::function<void()> fn) {
  std::lock_guard<std::mutex> lock(foreign_mu_);
  checkpoint_callback_ = std::move(fn);
}

void Osd::SetKickCallback(std::function<void()> fn) {
  std::lock_guard<std::mutex> lock(foreign_mu_);
  kick_callback_ = std::move(fn);
}

void Osd::RequestCheckpoint() { Kick(/*on_fill=*/false); }

void Osd::Kick(bool on_fill) {
  if (!checkpoint_thread_.joinable()) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(ckpt_mu_);
    if (ckpt_shutdown_) {
      return;
    }
    ckpt_forced_ = ckpt_forced_ || !on_fill;
    if (ckpt_requested_) {
      return;
    }
    ckpt_requested_ = true;
    ckpt_state_.store(static_cast<int>(CheckpointerState::kKicked),
                      std::memory_order_relaxed);
  }
  ckpt_cv_.notify_one();
  std::function<void()> also;
  {
    std::lock_guard<std::mutex> lock(foreign_mu_);
    also = kick_callback_;
  }
  if (also) {
    also();
  }
}

// ---------------------------------------------------------------- replay

Status Osd::ReplayRecord(Slice payload, const ForeignReplayFn& replay_foreign) {
  if (payload.empty()) {
    return Status::Corruption("empty journal record");
  }
  uint8_t type = static_cast<uint8_t>(payload[0]);
  Slice in = payload;
  in.RemovePrefix(1);
  switch (type) {
    case kRtCreate: {
      uint64_t oid, now;
      if (!GetVarint64(&in, &oid) || !GetFixed64(&in, &now)) {
        return Status::Corruption("bad create record");
      }
      HFAD_RETURN_IF_ERROR(DoCreate(oid, now).status());
      uint64_t expect = next_oid_.load();
      while (expect <= oid && !next_oid_.compare_exchange_weak(expect, oid + 1)) {
      }
      return Status::Ok();
    }
    case kRtDelete: {
      uint64_t oid;
      if (!GetVarint64(&in, &oid)) {
        return Status::Corruption("bad delete record");
      }
      return DoDelete(oid);
    }
    case kRtWrite:
    case kRtInsert: {
      uint64_t oid, off, now;
      Slice data;
      if (!GetVarint64(&in, &oid) || !GetVarint64(&in, &off) || !GetFixed64(&in, &now) ||
          !GetLengthPrefixed(&in, &data)) {
        return Status::Corruption("bad write/insert record");
      }
      return type == kRtWrite ? DoWrite(oid, off, data, now) : DoInsert(oid, off, data, now);
    }
    case kRtRemoveRange: {
      uint64_t oid, off, len, now;
      if (!GetVarint64(&in, &oid) || !GetVarint64(&in, &off) || !GetVarint64(&in, &len) ||
          !GetFixed64(&in, &now)) {
        return Status::Corruption("bad remove-range record");
      }
      return DoRemoveRange(oid, off, len, now);
    }
    case kRtTruncate: {
      uint64_t oid, size, now;
      if (!GetVarint64(&in, &oid) || !GetVarint64(&in, &size) || !GetFixed64(&in, &now)) {
        return Status::Corruption("bad truncate record");
      }
      return DoTruncate(oid, size, now);
    }
    case kRtSetAttr: {
      uint64_t oid, now;
      uint32_t mode, uid, gid;
      if (!GetVarint64(&in, &oid) || !GetVarint32(&in, &mode) || !GetVarint32(&in, &uid) ||
          !GetVarint32(&in, &gid) || !GetFixed64(&in, &now)) {
        return Status::Corruption("bad setattr record");
      }
      return DoSetAttributes(oid, mode, uid, gid, now);
    }
    case kRtForeign:
      if (replay_foreign == nullptr) {
        return Status::Corruption("foreign journal record but no replay hook");
      }
      return replay_foreign(this, in);
    default:
      return Status::Corruption("unknown journal record type " + std::to_string(type));
  }
}

// ---------------------------------------------------------------- lifecycle ops

Result<ObjectId> Osd::CreateObject() { return CreateObjectAt(next_oid_.fetch_add(1)); }

Result<ObjectId> Osd::CreateObjectAt(ObjectId oid) {
  HFAD_RETURN_IF_ERROR(JournalThenApply(
      oid, OpCost{},
      [&](uint64_t now, OpCost*, std::string* rec, bool*) {
        rec->push_back(static_cast<char>(kRtCreate));
        PutVarint64(rec, oid);
        PutFixed64(rec, now);
        return Status::Ok();
      },
      [&](uint64_t now) {
        // Advance the counter past the chosen id (same CAS loop as replay) so a later
        // CreateObject() on this volume can never collide with it.
        uint64_t expect = next_oid_.load();
        while (expect <= oid && !next_oid_.compare_exchange_weak(expect, oid + 1)) {
        }
        return DoCreate(oid, now).status();
      }));
  return oid;
}

Result<ObjectId> Osd::DoCreate(ObjectId oid, uint64_t now_ns) {
  std::string key = OidKey(oid);
  ObjectRecord rec;
  rec.meta.atime_ns = rec.meta.mtime_ns = rec.meta.ctime_ns = now_ns;
  // Fresh oids come off the monotonic next_oid_ counter and replayed creates always
  // postdate the last checkpoint (the journal resets there), so the key is new; Put's
  // inserted flag is a cheaper uniqueness check than a separate Contains descent.
  bool inserted = false;
  HFAD_RETURN_IF_ERROR(object_table_->Put(key, EncodeRecord(rec), &inserted));
  if (!inserted) {
    return Status::AlreadyExists("object " + std::to_string(oid) + " already exists");
  }
  return oid;
}

Status Osd::DeleteObject(ObjectId oid) {
  return JournalThenApply(
      oid, OpCost{},
      [&](uint64_t, OpCost*, std::string* rec, bool*) {
        if (!object_table_->Contains(OidKey(oid))) {
          return Status::NotFound("no object " + std::to_string(oid));
        }
        rec->push_back(static_cast<char>(kRtDelete));
        PutVarint64(rec, oid);
        return Status::Ok();
      },
      [&](uint64_t) { return DoDelete(oid); });
}

Status Osd::DoDelete(ObjectId oid) {
  extent_maps_.Erase(oid);
  std::string key = OidKey(oid);
  HFAD_ASSIGN_OR_RETURN(std::string raw, object_table_->Get(key));
  HFAD_ASSIGN_OR_RETURN(ObjectRecord rec, DecodeRecord(raw));
  extent::ExtentTree tree(pager_.get(), allocator_.get(), rec.extent_root);
  HFAD_RETURN_IF_ERROR(tree.Clear());
  return object_table_->Delete(key);
}

bool Osd::Exists(ObjectId oid) const {
  std::shared_lock<std::shared_mutex> vlock(volume_mu_);
  return object_table_->Contains(OidKey(oid));
}

uint64_t Osd::object_count() const {
  std::shared_lock<std::shared_mutex> vlock(volume_mu_);
  return object_table_->Count();
}

uint64_t Osd::journal_records_appended() const {
  return journal_->next_sequence() - 1;  // Journal sequencing is internally locked.
}

double Osd::journal_occupancy() const {
  return options_.journaling ? journal_->Occupancy() : 0.0;
}

double Osd::journal_reserved() const {
  if (!options_.journaling) {
    return 0.0;
  }
  std::lock_guard<std::mutex> lock(journal_mu_);
  return static_cast<double>(FillLocked().total) / static_cast<double>(sb_.journal_size);
}

uint64_t Osd::journal_pending_records() const {
  return options_.journaling ? journal_->pending_records() : 0;
}

std::string Osd::DumpMetrics() const {
  metrics::JsonWriter w;
  w.BeginObject();
  w.Key("schema_version").Value(uint64_t{1});
  w.Key("scope").Value("osd");
  metrics::WriteCountersJson(&w);
  metrics::WriteHistogramsJson(&w);

  w.Key("gauges").BeginObject();
  w.Key("journal_occupancy_pct").Value(journal_occupancy() * 100.0);
  w.Key("journal_reserved_pct").Value(journal_reserved() * 100.0);
  w.Key("journal_pending_records").Value(journal_pending_records());
  w.Key("pager_resident_pages").Value(static_cast<uint64_t>(pager_->cached_pages()));
  w.Key("pager_dirty_pages").Value(static_cast<uint64_t>(pager_->dirty_pages()));
  w.Key("checkpointer_state").Value(static_cast<int64_t>(checkpointer_state()));
  w.Key("object_count").Value(object_count());
  w.Key("heap_allocated_bytes").Value(heap_allocated_bytes());
  const io::IoEngine* engine = io_engine();
  w.Key("io_submitted").Value(engine->submitted());
  w.Key("io_completed").Value(engine->completed());
  w.Key("io_in_flight").Value(engine->in_flight());
  w.Key("io_max_queue_depth").Value(engine->max_queue_depth());
  w.Key("volume_health").Value(static_cast<int64_t>(health_.state()));
  w.Key("volume_health_name").Value(std::string(HealthStateName(health_.state())));
  w.Key("checksums_enabled").Value(int64_t{checksums_ ? 1 : 0});
  w.Key("scrub_passes").Value(scrubber_ ? scrubber_->passes() : 0);
  w.Key("quarantined_pages")
      .Value(checksums_ ? static_cast<uint64_t>(checksums_->QuarantinedPages().size()) : 0);
  w.EndObject();

  w.Key("locks").BeginObject();
  WriteLockStatsJson(&w, "object_mutex", object_mu_);
  w.Key("pager_stripes").BeginObject();
  w.Key("total_acquisitions").Value(pager_->stripe_lock_acquisitions());
  w.Key("total_contentions").Value(pager_->stripe_lock_contentions());
  w.Key("top_contended").BeginArray();
  for (const auto& st : pager_->TopContendedStripes(4)) {
    w.BeginObject();
    w.Key("shard").Value(static_cast<uint64_t>(st.stripe));
    w.Key("acquisitions").Value(st.acquisitions);
    w.Key("contentions").Value(st.contentions);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  w.EndObject();

  w.EndObject();
  return w.str();
}

Status Osd::ScanObjects(const std::function<bool(ObjectId, const ObjectMeta&)>& fn) const {
  return ScanObjects(0, fn);
}

Status Osd::ScanObjects(ObjectId start,
                        const std::function<bool(ObjectId, const ObjectMeta&)>& fn) const {
  HFAD_RETURN_IF_ERROR(CheckReadable());
  std::shared_lock<std::shared_mutex> vlock(volume_mu_);
  Status decode_status;
  // Big-endian OID keys make the numeric lower bound a plain key lower bound.
  Status s = object_table_->Scan(start == 0 ? std::string() : OidKey(start), "",
                                 [&](Slice key, Slice value) {
                                   auto rec = DecodeRecord(value);
                                   if (!rec.ok()) {
                                     decode_status = rec.status();
                                     return false;
                                   }
                                   return fn(OidFromKey(key), rec->meta);
                                 });
  HFAD_RETURN_IF_ERROR(decode_status);
  return s;
}

// ---------------------------------------------------------------- metadata ops

Result<ObjectMeta> Osd::Stat(ObjectId oid) const {
  HFAD_RETURN_IF_ERROR(CheckReadable());
  std::shared_lock<std::shared_mutex> vlock(volume_mu_);
  auto olock = object_mu_.LockShared(oid);
  HFAD_ASSIGN_OR_RETURN(std::string raw, object_table_->Get(OidKey(oid)));
  HFAD_ASSIGN_OR_RETURN(ObjectRecord rec, DecodeRecord(raw));
  return rec.meta;
}

Status Osd::SetAttributes(ObjectId oid, uint32_t mode, uint32_t uid, uint32_t gid) {
  return JournalThenApply(
      oid, OpCost{},
      [&](uint64_t now, OpCost*, std::string* rec, bool*) {
        if (!object_table_->Contains(OidKey(oid))) {
          return Status::NotFound("no object " + std::to_string(oid));
        }
        rec->push_back(static_cast<char>(kRtSetAttr));
        PutVarint64(rec, oid);
        PutVarint32(rec, mode);
        PutVarint32(rec, uid);
        PutVarint32(rec, gid);
        PutFixed64(rec, now);
        return Status::Ok();
      },
      [&](uint64_t now) { return DoSetAttributes(oid, mode, uid, gid, now); });
}

Status Osd::DoSetAttributes(ObjectId oid, uint32_t mode, uint32_t uid, uint32_t gid,
                            uint64_t now_ns) {
  std::string key = OidKey(oid);
  HFAD_ASSIGN_OR_RETURN(std::string raw, object_table_->Get(key));
  HFAD_ASSIGN_OR_RETURN(ObjectRecord rec, DecodeRecord(raw));
  rec.meta.mode = mode;
  rec.meta.uid = uid;
  rec.meta.gid = gid;
  rec.meta.ctime_ns = now_ns;
  return object_table_->Put(key, EncodeRecord(rec));
}

// ---------------------------------------------------------------- byte access

Status Osd::Read(ObjectId oid, uint64_t offset, size_t n, std::string* out) const {
  HFAD_RETURN_IF_ERROR(CheckReadable());
  std::shared_lock<std::shared_mutex> vlock(volume_mu_);
  auto olock = object_mu_.LockShared(oid);
  if (!in_recovery_) {
    ExtentMap map;
    if (extent_maps_.Get(oid, &map)) {
      stats::Add(stats::Counter::kExtentMapHits);
      return extent::ReadMapped(pager_.get(), map.extents.data(), map.count, offset, n, out);
    }
    stats::Add(stats::Counter::kExtentMapMisses);
  }
  HFAD_ASSIGN_OR_RETURN(std::string raw, object_table_->Get(OidKey(oid)));
  HFAD_ASSIGN_OR_RETURN(ObjectRecord rec, DecodeRecord(raw));
  extent::ExtentTree tree(pager_.get(), allocator_.get(), rec.extent_root);
  HFAD_RETURN_IF_ERROR(tree.Read(offset, n, out));
  std::vector<extent::Extent> extents;
  if (!in_recovery_ && tree.SmallMap(kMaxMappedExtents, &extents).value_or(false)) {
    ExtentMap map;
    std::copy(extents.begin(), extents.end(), map.extents.begin());
    map.count = extents.size();
    extent_maps_.PutWithEvict(oid, map,
                              kExtentMapCacheMaxEntries / decltype(extent_maps_)::kNumStripes);
  }
  return Status::Ok();
}

namespace {

// Data-op journal payload: type, oid, offset, mtime, data.
std::string EncodeDataRecord(uint8_t type, ObjectId oid, uint64_t offset, uint64_t now,
                             Slice data) {
  std::string rec;
  rec.push_back(static_cast<char>(type));
  PutVarint64(&rec, oid);
  PutVarint64(&rec, offset);
  PutFixed64(&rec, now);
  PutLengthPrefixed(&rec, data);
  return rec;
}

}  // namespace

Status Osd::Write(ObjectId oid, uint64_t offset, Slice data) {
  OpCost cost;
  cost.record_bytes = data.size() + 64;
  cost.fresh_extents = ExtentsFor(data.size());  // At most all of it lands past the end.
  return JournalThenApply(
      oid, cost,
      [&](uint64_t now, OpCost*, std::string* rec, bool* force_sync) {
        HFAD_ASSIGN_OR_RETURN(uint64_t size, LockedSize(oid));
        if (offset > size) {
          return Status::OutOfRange("write at " + std::to_string(offset) + " past end " +
                                    std::to_string(size));
        }
        // Overwrites clobber live payload bytes in place (raw IO, not no-steal cached),
        // so the redo record must be durable first.
        *force_sync = offset < size;
        *rec = EncodeDataRecord(kRtWrite, oid, offset, now, data);
        return Status::Ok();
      },
      [&](uint64_t now) { return DoWrite(oid, offset, data, now); });
}

Status Osd::Insert(ObjectId oid, uint64_t offset, Slice data) {
  OpCost cost;
  cost.record_bytes = data.size() + 64;
  cost.fresh_extents = ExtentsFor(data.size()) + 1;  // Plus the carried tail.
  return JournalThenApply(
      oid, cost,
      [&](uint64_t now, OpCost*, std::string* rec, bool*) {
        HFAD_ASSIGN_OR_RETURN(uint64_t size, LockedSize(oid));
        if (offset > size) {
          return Status::OutOfRange("insert at " + std::to_string(offset) + " past end " +
                                    std::to_string(size));
        }
        *rec = EncodeDataRecord(kRtInsert, oid, offset, now, data);
        return Status::Ok();
      },
      [&](uint64_t now) { return DoInsert(oid, offset, data, now); });
}

Status Osd::RemoveRange(ObjectId oid, uint64_t offset, uint64_t length) {
  OpCost cost;
  cost.fresh_extents = 1;  // The tail carried past the cut's end.
  cost.cuts = true;
  return JournalThenApply(
      oid, cost,
      [&](uint64_t now, OpCost*, std::string* rec, bool*) {
        HFAD_ASSIGN_OR_RETURN(uint64_t size, LockedSize(oid));
        if (offset + length > size) {
          return Status::OutOfRange("remove range past end of object");
        }
        rec->push_back(static_cast<char>(kRtRemoveRange));
        PutVarint64(rec, oid);
        PutVarint64(rec, offset);
        PutVarint64(rec, length);
        PutFixed64(rec, now);
        return Status::Ok();
      },
      [&](uint64_t now) { return DoRemoveRange(oid, offset, length, now); });
}

Status Osd::Truncate(ObjectId oid, uint64_t new_size) {
  OpCost cost;  // Sized as a shrink until the object's size is known.
  cost.fresh_extents = 1;
  cost.cuts = true;
  return JournalThenApply(
      oid, cost,
      [&](uint64_t now, OpCost* actual, std::string* rec, bool*) {
        HFAD_ASSIGN_OR_RETURN(uint64_t size, LockedSize(oid));
        const bool grows = new_size > size;
        actual->fresh_extents = grows ? ExtentsFor(new_size - size) : 1;  // Zero fill.
        actual->cuts = !grows;
        rec->push_back(static_cast<char>(kRtTruncate));
        PutVarint64(rec, oid);
        PutVarint64(rec, new_size);
        PutFixed64(rec, now);
        return Status::Ok();
      },
      [&](uint64_t now) { return DoTruncate(oid, new_size, now); });
}

Result<uint64_t> Osd::Size(ObjectId oid) const {
  HFAD_RETURN_IF_ERROR(CheckReadable());
  std::shared_lock<std::shared_mutex> vlock(volume_mu_);
  auto olock = object_mu_.LockShared(oid);
  HFAD_ASSIGN_OR_RETURN(std::string raw, object_table_->Get(OidKey(oid)));
  HFAD_ASSIGN_OR_RETURN(ObjectRecord rec, DecodeRecord(raw));
  return rec.meta.size;
}

Status Osd::MutateObject(ObjectId oid, uint64_t now_ns,
                         const std::function<Status(extent::ExtentTree*)>& fn) {
  extent_maps_.Erase(oid);
  std::string key = OidKey(oid);
  HFAD_ASSIGN_OR_RETURN(std::string raw, object_table_->Get(key));
  HFAD_ASSIGN_OR_RETURN(ObjectRecord rec, DecodeRecord(raw));
  extent::ExtentTree tree(pager_.get(), allocator_.get(), rec.extent_root);
  HFAD_RETURN_IF_ERROR(fn(&tree));
  rec.extent_root = tree.root();
  rec.meta.size = tree.Size();
  rec.meta.mtime_ns = now_ns;
  return object_table_->Put(key, EncodeRecord(rec));
}

Status Osd::DoWrite(ObjectId oid, uint64_t offset, Slice data, uint64_t now_ns) {
  return MutateObject(oid, now_ns,
                      [&](extent::ExtentTree* tree) { return tree->Write(offset, data); });
}

Status Osd::DoInsert(ObjectId oid, uint64_t offset, Slice data, uint64_t now_ns) {
  return MutateObject(oid, now_ns,
                      [&](extent::ExtentTree* tree) { return tree->Insert(offset, data); });
}

Status Osd::DoRemoveRange(ObjectId oid, uint64_t offset, uint64_t length, uint64_t now_ns) {
  return MutateObject(oid, now_ns, [&](extent::ExtentTree* tree) {
    return tree->RemoveRange(offset, length);
  });
}

Status Osd::DoTruncate(ObjectId oid, uint64_t new_size, uint64_t now_ns) {
  return MutateObject(oid, now_ns, [&](extent::ExtentTree* tree) -> Status {
    uint64_t size = tree->Size();
    if (new_size < size) {
      return tree->RemoveRange(new_size, size - new_size);
    }
    if (new_size > size) {
      std::string zeros(new_size - size, '\0');
      return tree->Write(size, zeros);
    }
    return Status::Ok();
  });
}

Status Osd::CheckObject(ObjectId oid) const {
  std::shared_lock<std::shared_mutex> vlock(volume_mu_);
  auto olock = object_mu_.LockShared(oid);
  HFAD_ASSIGN_OR_RETURN(std::string raw, object_table_->Get(OidKey(oid)));
  HFAD_ASSIGN_OR_RETURN(ObjectRecord rec, DecodeRecord(raw));
  extent::ExtentTree tree(pager_.get(), allocator_.get(), rec.extent_root);
  HFAD_RETURN_IF_ERROR(tree.CheckInvariants());
  if (tree.Size() != rec.meta.size) {
    return Status::Corruption("object " + std::to_string(oid) + " records size " +
                              std::to_string(rec.meta.size) + " but extent tree holds " +
                              std::to_string(tree.Size()));
  }
  ExtentMap cached;
  if (extent_maps_.Get(oid, &cached)) {
    std::vector<extent::Extent> extents;
    HFAD_ASSIGN_OR_RETURN(bool small, tree.SmallMap(kMaxMappedExtents, &extents));
    if (!small || extents.size() != cached.count ||
        !std::equal(extents.begin(), extents.end(), cached.extents.begin())) {
      return Status::Corruption("object " + std::to_string(oid) +
                                ": cached extent map differs from its extent tree");
    }
  }
  return Status::Ok();
}

// ---------------------------------------------------------------- named roots

Result<uint64_t> Osd::GetNamedRoot(const std::string& name) const {
  std::shared_lock<std::shared_mutex> vlock(volume_mu_);
  auto raw = named_roots_->Get(name);
  if (raw.status().IsNotFound()) {
    return uint64_t{0};
  }
  HFAD_RETURN_IF_ERROR(raw.status());
  if (raw->size() != 8) {
    return Status::Corruption("bad named-root entry for " + name);
  }
  return DecodeFixed64(reinterpret_cast<const uint8_t*>(raw->data()));
}

Status Osd::SetNamedRoot(const std::string& name, uint64_t root) {
  std::shared_lock<std::shared_mutex> vlock(volume_mu_);
  std::string value(8, '\0');
  EncodeFixed64(reinterpret_cast<uint8_t*>(value.data()), root);
  return named_roots_->Put(name, value);
}

}  // namespace osd
}  // namespace hfad
