// The native hFAD API (§3.1): the paper's primary contribution, assembled.
//
// A FileSystem is a tagged, search-based namespace over an OSD volume. There are two
// halves, exactly as §3.1 lays them out:
//
//   * Naming interfaces map tagged search terms to objects. A name is any vector of
//     tag/value pairs; the result is the conjunction of per-index lookups, may contain
//     many objects, and no name need be unique (§3.1.1). Boolean queries and ranked
//     full-text search are layered on the same index stores. A POSIX path is just one
//     name among many (src/posix builds that layer on top of this API).
//
//   * Access interfaces manipulate an object once located: POSIX-compatible read and
//     write, plus insert (grow the middle) and the two-off_t truncate (shrink anywhere)
//     (§3.1.2).
//
// Tag mutations are journaled through the OSD (write-ahead), so the namespace and the
// object store recover together, in order, after a crash.
//
// Content indexing is inline: IndexContent(oid) journals its record and indexes the
// object's bytes before it returns, so an acknowledged index survives a crash like any
// other journaled op. The paper's background indexing (§3.4) is lazy_tag_indexing: tag
// mutations journal an intent and a worker applies their posting updates.
//
// Open question #2 ("extend the notion of a current directory to be an iterative
// refinement of a search") is implemented by SearchCursor: a stack of refinements whose
// intersection is the cursor's "directory contents"; Up() pops one refinement like cd ..
#ifndef HFAD_SRC_CORE_FILESYSTEM_H_
#define HFAD_SRC_CORE_FILESYSTEM_H_

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "src/common/sharded_lock.h"
#include "src/common/slice.h"
#include "src/common/status.h"
#include "src/core/lazy_tag_indexer.h"
#include "src/fulltext/fulltext.h"
#include "src/index/index_store.h"
#include "src/osd/osd.h"
#include "src/osd/osd_cluster.h"
#include "src/query/query.h"
#include "src/storage/block_device.h"

namespace hfad {
namespace core {

using index::ObjectId;
using index::TagValue;

struct FileSystemOptions {
  osd::OsdOptions osd;
  // Must be 0: IndexContent always indexes inline, and Create/Open refuse any other
  // value. Kept only so existing callers that assign 0 still compile.
  int lazy_indexing_threads = 0;
  // Lazy TAG indexing (§3.4 generalized to the namespace itself): tag mutations journal
  // an intent, update the reverse map inline, and return; a background worker applies
  // the forward posting-store updates in sorted bulk batches. Readers choose per query
  // between strict (wait for the horizon) and relaxed (current postings) visibility via
  // query::FindOptions::visibility. Acknowledged intents survive crashes: recovery
  // rebuilds the unapplied queue from the journal and the checkpoint's pending set.
  bool lazy_tag_indexing = false;
  // Bound on acknowledged-but-unapplied tag intents; mutators block past it.
  size_t tag_intent_queue_capacity = 4096;
  // Number of OSD shards (ROADMAP item 1). 1 (the default) is a one-shard cluster on
  // the same code path as N; 0 means one shard per device passed to the multi-device
  // Create/Open. Any other value must match the device count. Objects are hash-placed
  // across shards; namespace metadata lives on shard 0; cross-shard NamespaceBatch
  // commits use the cluster's prepare/commit protocol (src/osd/osd_cluster.h). Every
  // volume is stamped with its shard index, and Open refuses an unstamped one.
  size_t shard_count = 1;
};

class SearchCursor;
class NamespaceBatch;

class FileSystem {
 public:
  // Format a fresh volume.
  static Result<std::unique_ptr<FileSystem>> Create(std::shared_ptr<BlockDevice> device,
                                                    FileSystemOptions options = {});
  // Open an existing volume, recovering object store and namespace together.
  static Result<std::unique_ptr<FileSystem>> Open(std::shared_ptr<BlockDevice> device,
                                                  FileSystemOptions options = {});

  // Sharded forms: one volume per device, objects hash-placed across them
  // (FileSystemOptions::shard_count must be 0 or match devices.size()). Open recovers
  // every shard and resolves in-doubt cross-shard batches before returning.
  static Result<std::unique_ptr<FileSystem>> Create(
      std::vector<std::shared_ptr<BlockDevice>> devices, FileSystemOptions options = {});
  static Result<std::unique_ptr<FileSystem>> Open(
      std::vector<std::shared_ptr<BlockDevice>> devices, FileSystemOptions options = {});

  // Drains the lazy tag indexer (unless a test holds it paused), then closes the
  // cluster with the indexer's provider still installed, so each shard's close-time
  // checkpoint persists the intents it has not applied; the next Open re-seeds them.
  ~FileSystem();

  FileSystem(const FileSystem&) = delete;
  FileSystem& operator=(const FileSystem&) = delete;

  // ---- Naming interfaces (§3.1.1) ----
  //
  // All naming is ONE search interface (§3.1): every entry point below compiles to a
  // query::Expr and executes through Find's planner/iterator path. The legacy
  // signatures are thin adapters kept for incremental migration.

  // THE naming entry point: evaluate `expr` through the cost-based planner and pull one
  // page of matching oids (ascending). FindOptions.limit caps the page;
  // FindOptions.after resumes a previous page — together they make every naming
  // consumer streamable instead of materializing complete result sets.
  Result<query::FindPage> Find(const query::Expr& expr,
                               const query::FindOptions& options = {}) const;

  // Parse the boolean query syntax, then Find.
  Result<query::FindPage> Find(Slice query_text,
                               const query::FindOptions& options = {}) const;

  // The same plan as a pull iterator (unpositioned; SeekTo before use) for consumers
  // that stream without page boundaries. Borrows this FileSystem and `stats`.
  Result<std::unique_ptr<index::PostingIterator>> OpenQuery(
      const query::Expr& expr, query::PlanStats* stats = nullptr) const;

  // Objects matching every tag/value term (ascending oid; possibly many; possibly
  // none). Adapter: Find over a conjunction of terms, fully drained.
  Result<std::vector<ObjectId>> Lookup(const std::vector<TagValue>& terms) const;

  // Boolean query over the same namespace, e.g. "UDEF:beach AND NOT USER:nick".
  // Adapter: parse + Find, fully drained.
  Result<std::vector<ObjectId>> Query(Slice query_text) const;

  // Options for SearchText (the full-text adapter's slice of FindOptions).
  struct SearchTextOptions {
    // Maximum hits returned; 0 means unlimited.
    size_t limit = 0;
    // Read visibility of the candidate query under lazy tag indexing (see
    // query::Visibility); ignored with inline indexing.
    query::Visibility visibility = query::Visibility::kStrict;
  };

  // Ranked conjunctive full-text search (BM25). Adapter: the candidate set is the
  // planner's conjunction of FULLTEXT terms; BM25 scores the candidates.
  Result<std::vector<fulltext::SearchHit>> SearchText(const std::vector<std::string>& terms,
                                                      const SearchTextOptions& options) const;

  // Legacy form; equivalent to SearchText(terms, {.limit = limit}).
  Result<std::vector<fulltext::SearchHit>> SearchText(const std::vector<std::string>& terms,
                                                      size_t limit = 0) const;

  // Iterative search refinement (open question #2).
  SearchCursor OpenCursor() const;

  // Staged namespace mutations applied atomically with one journal record (see
  // NamespaceBatch below).
  NamespaceBatch NewBatch();

  // ---- Object lifecycle ----

  // Create an object carrying the given initial names.
  Result<ObjectId> Create(const std::vector<TagValue>& names = {});

  // Remove an object: every name, its full text when it was content-indexed, then the
  // object itself. The object's tag shard is held from the name scan through the
  // delete, so a concurrent AddTag or IndexContent on it lands wholly before (and is
  // stripped) or after (and fails NotFound). The names leave in one batch (one journal
  // record); the full-text strip is one more record, written only for an indexed
  // object.
  Status Remove(ObjectId oid);

  // ---- Tag management ----

  // Associate a name with an object. FULLTEXT and ID are not taggable: full-text names
  // come from IndexContent, and IDs are intrinsic.
  Status AddTag(ObjectId oid, const TagValue& name);
  Status RemoveTag(ObjectId oid, const TagValue& name);

  // Every name the object carries, sorted by (tag, value).
  Result<std::vector<TagValue>> Tags(ObjectId oid) const;

  // True when the reverse map records this exact name on the object (fsck support).
  bool HasName(ObjectId oid, const TagValue& name) const;

  // Visit every (object, name) pair on the volume, in oid order (fsck support).
  Status ScanAllNames(const std::function<bool(ObjectId, const TagValue&)>& fn) const;

  // (Re)index the object's current bytes for full-text search: one journal record, then
  // the FULLTEXT store, before returning. Searches see the content once this returns.
  Status IndexContent(ObjectId oid);

  // Drain the lazy TAG indexer: wait until every tag intent acknowledged before the
  // call is applied to the posting stores. No-op with inline indexing. Returns the
  // indexer's sticky first application error.
  Status WaitForTagIndexing();

  // Tag intents journaled/acknowledged but not yet applied to the posting stores
  // (queue + in-flight), for fsck's orphan suppression. Empty with inline indexing.
  std::vector<std::pair<ObjectId, TagValue>> PendingIndexIntents() const;

  // True when this filesystem defers forward posting updates to the background worker.
  bool lazy_tag_indexing() const { return tag_indexer_ != nullptr; }

  // Crash/concurrency test support: pin the indexer queue in a chosen drain state.
  LazyTagIndexer* tag_indexer_for_testing() { return tag_indexer_.get(); }

  // ---- Access interfaces (§3.1.2) ----

  Status Read(ObjectId oid, uint64_t offset, size_t n, std::string* out) const;
  Status Write(ObjectId oid, uint64_t offset, Slice data);
  // Insert bytes at offset, shifting the tail up.
  Status Insert(ObjectId oid, uint64_t offset, Slice data);
  // The hFAD truncate: remove `length` bytes at `offset` (two off_t's, §3.1.2).
  Status Truncate(ObjectId oid, uint64_t offset, uint64_t length);
  Result<uint64_t> Size(ObjectId oid) const;
  Result<osd::ObjectMeta> Stat(ObjectId oid) const;
  Status SetAttributes(ObjectId oid, uint32_t mode, uint32_t uid, uint32_t gid);

  // ---- Durability ----

  Status Sync();
  Status Checkpoint();

  // ---- Observability ----

  // One stable-schema JSON document (docs/OBSERVABILITY.md): process-wide counters and
  // latency histograms plus this filesystem's gauges (journal occupancy, pager resident/
  // dirty pages, indexer queue depth, checkpointer state) and lock contention stats
  // (tag shards, OSD object mutex, pager stripes — per-shard top-N included).
  std::string DumpMetrics() const;

  // ---- Lower layers (for the POSIX shim, benches, and tests) ----

  // The metadata shard (shard 0) — where named roots, index stores, and journal gauges
  // live. On a single-shard filesystem this is the whole volume, as before.
  osd::Osd* volume() { return osd_; }
  osd::OsdCluster* cluster() { return cluster_.get(); }
  const osd::OsdCluster* cluster() const { return cluster_.get(); }
  index::IndexCollection* indexes() { return indexes_.get(); }
  const index::IndexCollection* indexes() const { return indexes_.get(); }

 private:
  friend class NamespaceBatch;

  FileSystem(std::unique_ptr<osd::OsdCluster> cluster,
             std::unique_ptr<index::IndexCollection> indexes,
             const FileSystemOptions& options);

  // One staged tag mutation: NamespaceBatch's unit, a journal sub-record, and the lazy
  // indexer's queue entry.
  using TagOp = LazyTagIndexer::Op;

  // The one tag-mutation path, behind AddTag, RemoveTag and CommitBatch: acquire every
  // involved tag shard once (ordered MultiLock), then run CommitTagOpsLocked.
  Status CommitTagOps(const std::vector<TagOp>& ops);

  // With every involved tag shard held exclusively by the caller: check that every
  // object gaining a name exists, check removals against the pre-batch reverse map,
  // journal ONE record for all ops, then apply them in order. Lazy and inline indexing
  // differ only in the indexer's queue slots and enqueue, the credit size, the record
  // kind, and whether the posting stores are applied here. Crash recovery replays the
  // record as a unit. Remove calls it directly, holding its object's shard from the
  // name scan through the delete.
  Status CommitTagOpsLocked(const std::vector<TagOp>& ops);

  // CommitTagOps under the batch_commit histogram and span (Create and
  // NamespaceBatch::Commit; Remove records the same). An empty batch is a no-op.
  Status CommitBatch(const std::vector<TagOp>& ops);

  // A name a tag mutation may carry: its tag has an index store and, to be added, is
  // taggable (FULLTEXT and ID are not).
  Status CheckName(const TagValue& name, bool add) const;

  // Apply one foreign journal record (shared by live journaling and crash replay).
  // `meta` is the metadata shard (namespace btrees), `data` the shard whose journal the
  // record came from (object content reads for kNsIndexContent) — the same Osd on a
  // single-shard filesystem. When `filter_to_shard` is set the payload is a cross-shard
  // batch redone on one participant: only sub-ops whose oid is owned by `shard` apply.
  // Index-intent records (lazy mode) replay their reverse-map half inline and append
  // the deferred forward half to `recovered` (applied fully inline when null).
  static Status ApplyNamespaceRecord(osd::Osd* meta, osd::Osd* data,
                                     const osd::OsdCluster* cluster, size_t shard,
                                     bool filter_to_shard,
                                     index::IndexCollection* indexes, Slice payload,
                                     std::vector<TagOp>* recovered = nullptr);

  // Replay one add/remove association (single-tag records and batch or intent
  // sub-records): the reverse-map half, plus the posting-store half when `forward`. All
  // namespace state lives on `meta`.
  static Status ReplayTagOp(osd::Osd* meta, index::IndexCollection* indexes,
                            const TagOp& op, bool forward);

  // Post-recovery hand-off: seed the background queue (lazy) or apply the deferred
  // forward updates inline (non-lazy), then install the live checkpoint provider.
  Status AdoptRecoveredIntents(std::vector<TagOp> recovered);

  // Read the object's bytes from `data` (the shard that owns it) and index them in the
  // FULLTEXT store: IndexContent's apply and the kNsIndexContent replay.
  static Status IndexObjectContent(const osd::Osd* data, index::IndexCollection* indexes,
                                   ObjectId oid);

  // The object's names from the reverse map; NotFound if the object does not exist.
  // Caller holds the object's tag shard, shared or exclusive.
  Result<std::vector<TagValue>> NamesLocked(ObjectId oid) const;

  // Tag state is striped (see docs/CONCURRENCY.md): shard i of tag_mu_ guards both the
  // serialization of tag mutations for oids in shard i and that shard's slice of the
  // reverse map, so unrelated objects' tag operations never touch a common lock — no
  // global reverse_mu_ bottleneck, which is the paper's §2.3 argument applied to our
  // own metadata.
  static constexpr size_t kTagShards = 64;
  static constexpr size_t TagShardOf(ObjectId oid) {
    return ShardedMutex<kTagShards>::ShardOf(oid);
  }

  // One stripe of the reverse map oid -> names (so Remove() can strip every name).
  // Backed by a named btree per shard; `root` mirrors the last persisted root.
  struct ReverseShard {
    std::unique_ptr<btree::BTree> tree;
    uint64_t root = 0;
  };

  // Persist shard's reverse-tree root if it moved. Caller holds the shard exclusively.
  Status SyncReverseRoot(size_t shard);

  const FileSystemOptions options_;
  std::unique_ptr<osd::OsdCluster> cluster_;
  osd::Osd* osd_ = nullptr;  // cluster_->meta(): the shard namespace state lives on.
  std::unique_ptr<index::IndexCollection> indexes_;
  std::unique_ptr<query::QueryEngine> query_engine_;
  std::unique_ptr<LazyTagIndexer> tag_indexer_;  // Null unless lazy_tag_indexing.

  mutable ShardedMutex<kTagShards> tag_mu_;
  std::array<ReverseShard, kTagShards> reverse_;
};

// Iterative refinement of a search as a "current directory" (§4, open question #2).
// Each Refine() pushes one tag/value term; Results() is the conjunction of all terms,
// evaluated live through the Find path. Up() pops the most recent term — the
// search-namespace analogue of "cd ..".
class SearchCursor {
 public:
  // Results() returns at most this many ids — an unrefined cursor used to enumerate the
  // entire volume unbounded; now every materializing read is a capped page (use
  // ResultsPage to continue past it).
  static constexpr size_t kDefaultResultLimit = 1024;

  explicit SearchCursor(const FileSystem* fs) : fs_(fs) {}

  // Narrow the cursor by one more term (validated against the registered stores). The
  // result set only ever shrinks.
  Status Refine(const TagValue& term);

  // Drop the most recent refinement. No-op at the root.
  Status Up();

  // First page (kDefaultResultLimit) of the current result set. At the root (no
  // refinements) this pages over every object on the volume.
  Result<std::vector<ObjectId>> Results() const;

  // Paged results with caller-controlled limit/after — the streaming form. Each call
  // re-evaluates against the live namespace; FindOptions.after keyset-anchors the page,
  // so concurrent mutations never duplicate or reorder ids across pages.
  Result<query::FindPage> ResultsPage(const query::FindOptions& options) const;

  // The refinement stack, oldest first — the cursor's "working directory path".
  const std::vector<TagValue>& path() const { return path_; }

  size_t depth() const { return path_.size(); }

  // Read visibility used by Results(); ResultsPage callers carry their own choice in
  // FindOptions::visibility. Meaningful only under lazy tag indexing (query::Visibility).
  void set_visibility(query::Visibility v) { visibility_ = v; }
  query::Visibility visibility() const { return visibility_; }

 private:
  const FileSystem* fs_;
  std::vector<TagValue> path_;
  query::Visibility visibility_ = query::Visibility::kStrict;
};

// Staged namespace mutations applied as one atomic unit — the write-side half of the
// unified naming API. Stage any mix of AddTag/RemoveTag (and Create for fresh objects
// whose initial names ride the batch), then Commit():
//
//   * every involved tag shard is acquired exactly once, in ascending shard order
//     (deadlock-free MultiLock), instead of once per tag;
//   * ONE journal record covers the whole batch (vs. one per tag for the loose calls) —
//     the API-level answer to journal-append contention on tag-storm workloads;
//   * crash recovery replays the batch as a unit: after a crash either every staged op
//     is recovered or none is (the journal's record-level atomicity).
//
// RemoveTag preconditions are validated against the pre-batch state under the locks,
// before journaling: a batch that removes a name it also stages an add for is rejected.
// Not thread-safe; one thread stages and commits. Commit clears the batch on success so
// the instance is reusable.
class NamespaceBatch {
 public:
  explicit NamespaceBatch(FileSystem* fs) : fs_(fs) {}

  // Stage one association. Tag validity (taggable, store registered) is checked here;
  // object existence at Commit.
  Status AddTag(ObjectId oid, const TagValue& name);

  // Stage one removal. The association must exist when Commit runs.
  Status RemoveTag(ObjectId oid, const TagValue& name);

  // Create a fresh object now (object allocation is OSD-journaled immediately) and
  // stage its initial names onto the batch.
  Result<ObjectId> Create(const std::vector<TagValue>& names = {});

  // Apply every staged op atomically (see class comment). On success the batch clears.
  Status Commit();

  // Discard staged ops without applying them. Objects from Create() persist (they were
  // allocated eagerly), just without the staged names.
  void Clear() { ops_.clear(); }

  size_t size() const { return ops_.size(); }
  bool empty() const { return ops_.empty(); }

 private:
  FileSystem* const fs_;
  std::vector<FileSystem::TagOp> ops_;
};

}  // namespace core
}  // namespace hfad

#endif  // HFAD_SRC_CORE_FILESYSTEM_H_
