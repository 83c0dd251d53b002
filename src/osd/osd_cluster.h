// Multi-volume sharded object store: N independent Osd volumes behind one object-id
// space (ROADMAP item 1 — the scale-out lever).
//
// Placement: object ids come off one cluster-wide monotonic counter and are placed by a
// Fibonacci hash of the id, so every volume keeps its own journal, pager, allocator, and
// background checkpointer — per-shard group commit instead of one global fsync queue.
// Single-object ops route straight through to the owning volume with no cluster-level
// locks on the hot path.
//
// Shard 0 is the *metadata shard*: the FileSystem layer keeps its named roots, index
// stores, reverse maps, and full-text state there. One device is a one-shard cluster on
// the same path as N: every volume carries a (shard_count, shard_index) stamp written at
// Create and checked at Open, and every higher-layer record is framed. A volume without
// a stamp (a bare Osd volume, or one written before every cluster volume was stamped) is
// refused. A one-shard cluster's volume still opens as a bare Osd: the stamp is one
// named root.
//
// Cross-shard atomicity (NamespaceBatch spanning owners) is a prepare/commit journal
// record pair inside the existing foreign-record envelope — no new OSD record types on
// disk:
//
//   prepare  [kCfPrepare][fixed64 batch_id][varint coordinator][full inner payload]
//            appended to EVERY participant shard's journal, one shard at a time, then
//            synced on all participants at once (one device-sync round trip);
//   commit   [kCfCommit][fixed64 batch_id]
//            appended to the coordinator (the minimum participant shard index) and made
//            durable BEFORE the caller applies the ops or releases its locks.
//
// Recovery opens shards in index order (coordinator <= every participant, so a batch's
// verdict is always known before any participant's prepare replays) and resolves
// in-doubt batches by the coordinator's commit record: present => redo the prepare's
// owned slice on every shard, absent => discard everywhere. Discarding is safe because
// commit durability precedes lock release — no later record can depend on an
// uncommitted batch.
//
// Retention: a record journaled on shard k has its namespace effects on shard 0's
// state, so shard k's checkpoint (which resets shard k's journal) must not be the last
// copy until a shard-0 checkpoint has captured those effects. The cluster keeps each
// such record in an in-memory retention list that rides shard k's unapplied-foreign
// provider (persisted into the shard's pending-foreign set by its checkpoints) and is
// trimmed by the metadata shard's checkpoint callback once the applying layer has
// marked the record applied (MarkForeignApplied). Replay is idempotent, so an entry
// persisted one checkpoint longer than necessary is harmless. The list is bounded by
// journal pressure, not by its length: every retained record counts in shard k's
// accounted journal fill until shard k checkpoints, and when that fill kicks shard k's
// checkpointer it kicks the metadata shard's too (Osd::SetKickCallback), whose
// checkpoint trims the list before shard k would persist it again.
#ifndef HFAD_SRC_OSD_OSD_CLUSTER_H_
#define HFAD_SRC_OSD_OSD_CLUSTER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/common/slice.h"
#include "src/common/status.h"
#include "src/osd/osd.h"
#include "src/storage/block_device.h"

namespace hfad {
namespace osd {

class OsdCluster {
 public:
  // Replay hook for higher-layer records. `meta` is the metadata shard (== `volume`
  // while shard 0 itself is being opened), `volume` the shard whose journal the record
  // came from (object content reads go here), `shard` its index. When
  // `filter_to_shard` is set the payload is a cross-shard batch being redone on one
  // participant: the hook must apply only the ops whose owner is `shard`.
  using ForeignReplayFn =
      std::function<Status(Osd* meta, Osd* volume, OsdCluster* cluster, size_t shard,
                           bool filter_to_shard, Slice payload)>;

  // Per-shard unapplied-payload provider for the higher layer (the lazy tag indexer's
  // queued intents, filtered to the shard whose checkpoint is asking).
  using UnappliedProviderFn = std::function<std::vector<std::string>(size_t shard)>;

  // Format one fresh volume per device, each stamped with (shard_count, shard_index) so
  // Open can reject unstamped volumes and reordered or mixed device sets.
  static Result<std::unique_ptr<OsdCluster>> Create(
      std::vector<std::shared_ptr<BlockDevice>> devices, const OsdOptions& options);

  // Open existing volumes, running per-shard crash recovery in shard order and
  // resolving in-doubt cross-shard batches (see file comment). Each volume's stamp is
  // checked before its first cluster record replays.
  static Result<std::unique_ptr<OsdCluster>> Open(
      std::vector<std::shared_ptr<BlockDevice>> devices, const OsdOptions& options,
      ForeignReplayFn replay_foreign = nullptr);

  ~OsdCluster();

  OsdCluster(const OsdCluster&) = delete;
  OsdCluster& operator=(const OsdCluster&) = delete;

  // ---- Topology ----

  size_t shard_count() const { return n_; }

  // Owning shard of an object id. Stable across versions: it is on-disk placement.
  size_t ShardOf(ObjectId oid) const {
    if (n_ == 1) {
      return 0;
    }
    return static_cast<size_t>((oid * 0x9E3779B97F4A7C15ull) >> 32) % n_;
  }

  // The metadata shard: named roots, index heap, reverse maps live here.
  Osd* meta() { return osds_[0].get(); }
  const Osd* meta() const { return osds_[0].get(); }
  Osd* shard(size_t k) { return osds_[k].get(); }
  const Osd* shard(size_t k) const { return osds_[k].get(); }
  Osd* owner(ObjectId oid) { return osds_[ShardOf(oid)].get(); }
  const Osd* owner(ObjectId oid) const { return osds_[ShardOf(oid)].get(); }

  // ---- Object lifecycle and data ops (routed to the owner, no cluster locks) ----

  Result<ObjectId> CreateObject();
  Status DeleteObject(ObjectId oid) { return owner(oid)->DeleteObject(oid); }
  bool Exists(ObjectId oid) const { return owner(oid)->Exists(oid); }
  Result<ObjectMeta> Stat(ObjectId oid) const { return owner(oid)->Stat(oid); }
  Status SetAttributes(ObjectId oid, uint32_t mode, uint32_t uid, uint32_t gid) {
    return owner(oid)->SetAttributes(oid, mode, uid, gid);
  }
  Status Read(ObjectId oid, uint64_t offset, size_t n, std::string* out) const {
    return owner(oid)->Read(oid, offset, n, out);
  }
  Status Write(ObjectId oid, uint64_t offset, Slice data) {
    return owner(oid)->Write(oid, offset, data);
  }
  Status Insert(ObjectId oid, uint64_t offset, Slice data) {
    return owner(oid)->Insert(oid, offset, data);
  }
  Status RemoveRange(ObjectId oid, uint64_t offset, uint64_t length) {
    return owner(oid)->RemoveRange(oid, offset, length);
  }
  Status Truncate(ObjectId oid, uint64_t new_size) {
    return owner(oid)->Truncate(oid, new_size);
  }
  Result<uint64_t> Size(ObjectId oid) const { return owner(oid)->Size(oid); }
  Status CheckObject(ObjectId oid) const { return owner(oid)->CheckObject(oid); }

  // Live objects across every shard.
  uint64_t object_count() const;

  // Visit objects with oid >= start across all shards, merged into global oid order.
  Status ScanObjects(ObjectId start,
                     const std::function<bool(ObjectId, const ObjectMeta&)>& fn) const;
  Status ScanObjects(const std::function<bool(ObjectId, const ObjectMeta&)>& fn) const {
    return ScanObjects(0, fn);
  }

  // ---- Durability (fan-out) ----

  // Every record appended on any shard before the call is durable on return. Every shard
  // is attempted; the first error in shard order wins. SyncShards over every shard: all
  // journal commits start before any is waited for.
  Status Sync();

  // Checkpoints the metadata shard first (so its callback trims the retention lists),
  // then every data shard.
  Status Checkpoint();

  Status Close();

  // ---- Higher-layer journaling ----
  //
  // All namespace records for object X go through the journal of X's owner: per-object
  // record order stays within one journal, and content-indexing replay reads X's bytes
  // from the volume being recovered. Records journaled off the metadata shard are
  // retained (see file comment); `token_out` receives a handle the caller passes to
  // MarkForeignApplied once the record's effects are applied to metadata-shard state
  // (0 = nothing retained). `with_lock` runs under the owning shard's volume lock,
  // exactly like Osd::AppendForeign.

  Status AppendForeign(ObjectId oid, Slice payload, uint64_t* token_out = nullptr);
  Status AppendForeign(ObjectId oid, Slice payload,
                       const std::function<void()>& with_lock,
                       uint64_t* token_out = nullptr);

  // Two-phase commit of one payload spanning multiple owner shards (`oids` are the
  // batch's members; at least two distinct owners). On return the batch is durably
  // committed on every participant: prepares appended shard by shard and synced
  // together, then the coordinator's commit record appended and synced — all before the
  // caller applies the ops. The returned token covers every prepare and the commit
  // record.
  Result<uint64_t> CommitForeignBatch(const std::vector<ObjectId>& oids, Slice payload);

  // The record(s) behind `token` have been fully applied to metadata-shard state; the
  // next metadata-shard checkpoint may drop their retained copies. No-op for token 0.
  void MarkForeignApplied(uint64_t token);

  // Store the higher layer's per-shard unapplied-payload provider. Each shard's
  // checkpoint snapshot is the retention list plus this provider's payloads for that
  // shard, read when the checkpoint runs; a layer that defers application keeps it
  // installed until Close, whose checkpoints are the last to persist its payloads.
  void SetUnappliedForeignProvider(UnappliedProviderFn fn);

  // Records kept until a metadata-shard checkpoint, on every shard together or on
  // `shard` (0 on one shard): FileSystem::DumpMetrics' retained_records gauge.
  size_t retained_records() const;
  size_t retained_records(size_t shard) const;

  // ---- Fault-domain health ----
  //
  // Health is per shard: every routed op already hits the owning volume's own
  // gate, so a failed shard fails exactly its objects while the others keep
  // serving. A cross-shard batch with a read-only participant aborts at that
  // participant's prepare append, before any commit record exists.

  HealthState shard_health(size_t k) const { return osds_[k]->health_state(); }

  // Worst health across shards — the cluster-level degradation gauge.
  HealthState worst_health() const;

  // One synchronous scrub pass per shard, reports summed. Shards without
  // checksums contribute empty reports.
  Status ScrubAll(ScrubReport* total);

 private:
  OsdCluster() = default;

  // Cluster record framing inside the Osd foreign-record envelope.
  static constexpr uint8_t kCfPlain = 1;
  static constexpr uint8_t kCfPrepare = 2;
  static constexpr uint8_t kCfCommit = 3;

  // Stamp named root recording (shard_count << 32) | (shard_index + 1) on every volume.
  static constexpr char kShardStampRoot[] = "osd/cluster-shard";
  static uint64_t ShardStamp(size_t n, size_t k) {
    return (static_cast<uint64_t>(n) << 32) | (k + 1);
  }

  struct Retained {
    std::string payload;  // Framed exactly as journaled; round-trips through replay.
    uint64_t token;
    bool replayed = false;  // Retained by RetainReplayed.
  };

  struct DeferredPrepare {
    uint64_t batch_id;
    std::string framed;  // Full framed prepare record.
    std::string inner;   // Payload after the prepare header.
  };

  // Sync `shards` together: every volume's journal commit starts (Osd::SyncAsync)
  // before any is waited for, so the round costs one device-sync round trip instead of
  // one per shard. No volume lock is held; the join is a leaf mutex the completions
  // take. Every shard is attempted; the first error in `shards` order wins.
  Status SyncShards(const std::vector<size_t>& shards);

  // Per-shard Osd::Open replay adapter body: unframe, resolve 2PC, forward to hook_.
  Status ReplayShardRecord(size_t k, Osd* volume, Slice payload);

  // Once per shard during Open, before its first record replays or when Osd::Open
  // returns: refuse a volume whose stamp is not shard k's, then install its provider.
  Status AdoptShard(size_t k, Osd* volume);

  // Install shard k's unapplied-foreign provider (retention list + higher layer).
  void InstallShardProvider(size_t k, Osd* volume);

  void Retain(size_t k, std::string payload, uint64_t token);
  // Retain a record re-applied during recovery: immediately clearable by the next
  // metadata-shard checkpoint (its effects are in metadata state already).
  void RetainReplayed(size_t k, Slice payload);
  // Metadata-shard checkpoint callback: drop every retained entry whose token has been
  // marked applied (the checkpoint that just completed captured its effects).
  void TrimRetained();

  Osd* MetaForReplay(size_t k, Osd* volume) {
    return k == 0 ? volume : osds_[0].get();
  }

  // Trim retention on the metadata shard's checkpoints, and wake its checkpointer
  // whenever a data shard's is kicked (see file comment).
  void InstallCheckpointHooks();

  std::vector<std::unique_ptr<Osd>> osds_;
  size_t n_ = 1;  // Shard count; fixed before any shard opens.
  ForeignReplayFn hook_;
  bool journaling_ = true;

  std::atomic<uint64_t> next_oid_{1};
  std::atomic<uint64_t> next_batch_id_{1};
  std::atomic<uint64_t> next_token_{1};

  // Retention state (leaf lock; taken under shard volume locks and inside the
  // metadata shard's checkpoint callback).
  mutable std::mutex retained_mu_;
  std::vector<std::vector<Retained>> retained_;
  std::unordered_set<uint64_t> applied_tokens_;

  std::mutex provider_mu_;
  UnappliedProviderFn higher_provider_;

  // Open-time state (single-threaded recovery).
  std::vector<bool> adopted_;                  // AdoptShard has run for shard k.
  std::unordered_set<uint64_t> committed_;     // Batch ids with a durable commit.
  std::vector<DeferredPrepare> open_deferred_; // Coordinator-side prepares awaiting
                                               // their commit in the same stream.
  uint64_t max_batch_id_seen_ = 0;
};

}  // namespace osd
}  // namespace hfad

#endif  // HFAD_SRC_OSD_OSD_CLUSTER_H_
