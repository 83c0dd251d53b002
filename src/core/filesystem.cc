#include "src/core/filesystem.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/common/coding.h"
#include "src/common/metrics.h"
#include "src/common/stats.h"
#include "src/common/trace.h"
#include "src/osd/scrubber.h"

namespace hfad {
namespace core {

namespace {

// Foreign (namespace) journal record ops. kNsAddTag/kNsRemoveTag frame the sub-records
// of the two tag records below.
constexpr uint8_t kNsAddTag = 1;
constexpr uint8_t kNsRemoveTag = 2;
constexpr uint8_t kNsIndexContent = 3;
constexpr uint8_t kNsUnindexContent = 4;
// One tag commit under inline indexing (a NamespaceBatch, or a loose AddTag/RemoveTag
// as a one-op batch): varint op count, then per op one kNsAddTag/kNsRemoveTag
// sub-record. The journal's record-level atomicity is what makes the batch recover as
// a unit.
constexpr uint8_t kNsBatch = 5;
// A lazy-mode tag intent: same framing as kNsBatch (varint count + sub-records), but
// replay applies only the reverse-map half inline and hands the forward posting-store
// half back to the background indexer queue instead of the posting btrees.
constexpr uint8_t kNsIndexIntent = 6;

// Reverse-map btree roots, one named root per shard ("core/reverse-tags/<shard>").
constexpr char kReverseRootPrefix[] = "core/reverse-tags/";

// Btree Put/Delete calls one tag op's apply makes on the metadata volume, which its
// journal credit covers: the reverse-map entry and the reverse root's registration,
// plus under inline indexing the posting entry and the store root's registration.
constexpr size_t kLazyTagOpMutations = 2;
constexpr size_t kInlineTagOpMutations = 4;

std::string ReverseRootName(size_t shard) {
  return kReverseRootPrefix + std::to_string(shard);
}

std::string OidBytes(ObjectId oid) {
  std::string key(8, '\0');
  for (int i = 7; i >= 0; i--) {
    key[i] = static_cast<char>(oid & 0xff);
    oid >>= 8;
  }
  return key;
}

std::string ReverseKey(ObjectId oid, const TagValue& name) {
  std::string key = OidBytes(oid);
  key += name.tag;
  key.push_back('\0');
  key += name.value;
  return key;
}

// Decode the "tag \0 value" suffix of a reverse key.
TagValue DecodeNameSuffix(Slice rest) {
  size_t sep = 0;
  while (sep < rest.size() && rest[sep] != '\0') {
    sep++;
  }
  TagValue tv;
  tv.tag = std::string(rest.data(), sep);
  if (sep + 1 <= rest.size()) {
    tv.value = std::string(rest.data() + sep + 1, rest.size() - sep - 1);
  }
  return tv;
}

ObjectId OidFromKey(Slice key) {
  ObjectId oid = 0;
  for (size_t i = 0; i < 8 && i < key.size(); i++) {
    oid = (oid << 8) | static_cast<uint8_t>(key[i]);
  }
  return oid;
}

// A kNsBatch or kNsIndexIntent record.
std::string EncodeTagOps(uint8_t kind, const std::vector<LazyTagIndexer::Op>& ops) {
  std::string rec;
  rec.push_back(static_cast<char>(kind));
  PutVarint64(&rec, ops.size());
  for (const LazyTagIndexer::Op& op : ops) {
    rec.push_back(static_cast<char>(op.add ? kNsAddTag : kNsRemoveTag));
    PutVarint64(&rec, op.oid);
    PutLengthPrefixed(&rec, op.name.tag);
    PutLengthPrefixed(&rec, op.name.value);
  }
  return rec;
}

std::string EncodeOidRecord(uint8_t op, ObjectId oid) {
  std::string rec;
  rec.push_back(static_cast<char>(op));
  PutVarint64(&rec, oid);
  return rec;
}

// Every tag the expression touches (including under NOT: a stale negated posting is
// just as wrong as a stale positive one) — the strict-visibility wait set.
void CollectQueryTags(const query::Expr& e, std::vector<std::string>* out) {
  if (e.kind == query::Expr::Kind::kTerm || e.kind == query::Expr::Kind::kPrefix) {
    out->push_back(e.tag);
    return;
  }
  for (const auto& child : e.children) {
    CollectQueryTags(*child, out);
  }
}

}  // namespace

// ---------------------------------------------------------------- construction

FileSystem::FileSystem(std::unique_ptr<osd::OsdCluster> cluster,
                       std::unique_ptr<index::IndexCollection> indexes,
                       const FileSystemOptions& options)
    : options_(options), cluster_(std::move(cluster)), osd_(cluster_->meta()),
      indexes_(std::move(indexes)) {
  for (size_t shard = 0; shard < kTagShards; shard++) {
    auto root = osd_->GetNamedRoot(ReverseRootName(shard));
    reverse_[shard].root = root.ok() ? *root : 0;
    reverse_[shard].tree = std::make_unique<btree::BTree>(osd_->pager(), osd_->allocator(),
                                                          reverse_[shard].root);
    // Report the height to the volume before any naming credit is sized from it.
    (void)reverse_[shard].tree->Height();
  }
  query_engine_ = std::make_unique<query::QueryEngine>(indexes_.get());
  if (options_.lazy_tag_indexing) {
    tag_indexer_ = std::make_unique<LazyTagIndexer>(indexes_.get(), osd_,
                                                    options_.tag_intent_queue_capacity);
  }
}

FileSystem::~FileSystem() {
  if (tag_indexer_ != nullptr) {
    // Apply what we can (Drain returns immediately while a test holds the queue
    // paused)...
    (void)tag_indexer_->Drain();
  }
  // ...then close with the provider still installed: every shard's close-time
  // checkpoint persists what the indexer has not applied, and the next Open re-seeds it.
  (void)cluster_->Close();
}

namespace {

// shard_count 0 means "one shard per device"; anything else must match exactly. There
// are no background content-indexing threads to ask for.
Status ValidateOptions(size_t devices, const FileSystemOptions& options) {
  if (devices == 0) {
    return Status::InvalidArgument("filesystem needs at least one device");
  }
  if (options.shard_count != 0 && options.shard_count != devices) {
    return Status::InvalidArgument("shard_count " + std::to_string(options.shard_count) +
                                   " does not match device count " +
                                   std::to_string(devices));
  }
  if (options.lazy_indexing_threads != 0) {
    return Status::InvalidArgument(
        "content indexing is inline; lazy_indexing_threads must be 0");
  }
  return Status::Ok();
}

}  // namespace

Result<std::unique_ptr<FileSystem>> FileSystem::Create(std::shared_ptr<BlockDevice> device,
                                                       FileSystemOptions options) {
  std::vector<std::shared_ptr<BlockDevice>> devices;
  devices.push_back(std::move(device));
  return Create(std::move(devices), std::move(options));
}

Result<std::unique_ptr<FileSystem>> FileSystem::Create(
    std::vector<std::shared_ptr<BlockDevice>> devices, FileSystemOptions options) {
  HFAD_RETURN_IF_ERROR(ValidateOptions(devices.size(), options));
  HFAD_ASSIGN_OR_RETURN(std::unique_ptr<osd::OsdCluster> cluster,
                        osd::OsdCluster::Create(std::move(devices), options.osd));
  HFAD_ASSIGN_OR_RETURN(std::unique_ptr<index::IndexCollection> indexes,
                        index::IndexCollection::Mount(cluster->meta()));
  std::unique_ptr<FileSystem> fs(
      new FileSystem(std::move(cluster), std::move(indexes), options));
  HFAD_RETURN_IF_ERROR(fs->AdoptRecoveredIntents({}));
  return fs;
}

Result<std::unique_ptr<FileSystem>> FileSystem::Open(std::shared_ptr<BlockDevice> device,
                                                     FileSystemOptions options) {
  std::vector<std::shared_ptr<BlockDevice>> devices;
  devices.push_back(std::move(device));
  return Open(std::move(devices), std::move(options));
}

Result<std::unique_ptr<FileSystem>> FileSystem::Open(
    std::vector<std::shared_ptr<BlockDevice>> devices, FileSystemOptions options) {
  HFAD_RETURN_IF_ERROR(ValidateOptions(devices.size(), options));
  // Namespace records replay through a lazily-mounted index collection on the metadata
  // shard; the collection is then adopted by the FileSystem. Index intents (lazy mode's
  // journaled-but-possibly-unapplied tag mutations) accumulate here: their reverse-map
  // half replays inline, their forward half is handed to AdoptRecoveredIntents after
  // construction.
  auto recovered = std::make_shared<std::vector<TagOp>>();
  std::unique_ptr<index::IndexCollection> replay_indexes;
  auto hook = [&replay_indexes, recovered](osd::Osd* meta, osd::Osd* data,
                                           osd::OsdCluster* cluster, size_t shard,
                                           bool filter_to_shard, Slice payload) -> Status {
    if (replay_indexes == nullptr) {
      HFAD_ASSIGN_OR_RETURN(replay_indexes, index::IndexCollection::Mount(meta));
      // Install a provider over the recovered set NOW: each shard's Osd::Open ends
      // recovery with a checkpoint that resets its journal, and at that moment this
      // closure is the only thing that can carry still-unapplied intents into the new
      // pending set. Each shard persists only the intents whose oid it owns.
      cluster->SetUnappliedForeignProvider([recovered, cluster](size_t s) {
        std::vector<std::string> payloads;
        for (const TagOp& op : *recovered) {
          if (cluster->ShardOf(op.oid) != s) {
            continue;
          }
          payloads.push_back(EncodeTagOps(kNsIndexIntent, {op}));
        }
        return payloads;
      });
    }
    return ApplyNamespaceRecord(meta, data, cluster, shard, filter_to_shard,
                                replay_indexes.get(), payload, recovered.get());
  };
  HFAD_ASSIGN_OR_RETURN(std::unique_ptr<osd::OsdCluster> cluster,
                        osd::OsdCluster::Open(std::move(devices), options.osd, hook));
  std::unique_ptr<index::IndexCollection> indexes = std::move(replay_indexes);
  if (indexes == nullptr) {
    HFAD_ASSIGN_OR_RETURN(indexes, index::IndexCollection::Mount(cluster->meta()));
  }
  std::unique_ptr<FileSystem> fs(
      new FileSystem(std::move(cluster), std::move(indexes), options));
  HFAD_RETURN_IF_ERROR(fs->AdoptRecoveredIntents(std::move(*recovered)));
  return fs;
}

// ---------------------------------------------------------------- replay

// Tolerates NotFound: the original op may have failed after journaling.
Status FileSystem::ReplayTagOp(osd::Osd* meta, index::IndexCollection* indexes,
                               const TagOp& op, bool forward) {
  index::IndexStore* store = indexes->store(op.name.tag);
  if (store == nullptr) {
    return Status::Corruption("tag record for unknown store '" + op.name.tag + "'");
  }
  const std::string root_name = ReverseRootName(TagShardOf(op.oid));
  btree::BTree reverse(meta->pager(), meta->allocator(),
                       meta->GetNamedRoot(root_name).value_or(0));
  const std::string key = ReverseKey(op.oid, op.name);
  Status s;
  if (forward) {
    s = op.add ? store->Add(op.name.value, op.oid) : store->Remove(op.name.value, op.oid);
  }
  if (s.ok() || s.IsNotFound()) {
    s = op.add ? reverse.Put(key, Slice()) : reverse.Delete(key);
  }
  if (!s.ok() && !s.IsNotFound()) {
    return s;
  }
  return meta->SetNamedRoot(root_name, reverse.root());
}

Status FileSystem::ApplyNamespaceRecord(osd::Osd* meta, osd::Osd* data,
                                        const osd::OsdCluster* cluster, size_t shard,
                                        bool filter_to_shard,
                                        index::IndexCollection* indexes, Slice payload,
                                        std::vector<TagOp>* recovered) {
  if (payload.empty()) {
    return Status::Corruption("empty namespace record");
  }
  uint8_t op = static_cast<uint8_t>(payload[0]);
  Slice in = payload;
  in.RemovePrefix(1);
  if (op == kNsBatch || op == kNsIndexIntent) {
    uint64_t count = 0;
    if (!GetVarint64(&in, &count)) {
      return Status::Corruption("bad batch record count");
    }
    for (uint64_t i = 0; i < count; i++) {
      if (in.empty()) {
        return Status::Corruption("truncated batch record");
      }
      uint8_t sub_op = static_cast<uint8_t>(in[0]);
      in.RemovePrefix(1);
      uint64_t oid;
      Slice tag, value;
      if (!GetVarint64(&in, &oid) || !GetLengthPrefixed(&in, &tag) ||
          !GetLengthPrefixed(&in, &value)) {
        return Status::Corruption("bad batch sub-record");
      }
      if (sub_op != kNsAddTag && sub_op != kNsRemoveTag) {
        return Status::Corruption("unknown batch sub-op " + std::to_string(sub_op));
      }
      // A cross-shard batch replays once per participant; each participant redoes only
      // the slice it owns, so the union over shards is exactly the whole batch.
      if (filter_to_shard && cluster->ShardOf(oid) != shard) {
        continue;
      }
      TagOp tag_op{sub_op == kNsAddTag, oid, {tag.ToString(), value.ToString()}};
      // A kNsBatch, or an intent with nowhere to defer its forward half to, applies
      // fully; a deferred intent replays the reverse-map half the live path applied.
      const bool defer = op == kNsIndexIntent && recovered != nullptr;
      HFAD_RETURN_IF_ERROR(ReplayTagOp(meta, indexes, tag_op, /*forward=*/!defer));
      if (defer) {
        recovered->push_back(std::move(tag_op));
      }
    }
    return Status::Ok();
  }
  uint64_t oid;
  if (!GetVarint64(&in, &oid)) {
    return Status::Corruption("bad namespace record oid");
  }
  switch (op) {
    case kNsIndexContent: {
      // Object bytes live on the shard whose journal carried the record. NotFound: the
      // object was deleted later in the log.
      Status s = IndexObjectContent(data, indexes, oid);
      return s.IsNotFound() ? Status::Ok() : s;
    }
    case kNsUnindexContent: {
      Status s = indexes->store(index::kTagFulltext)->Remove(Slice(), oid);
      return s.IsNotFound() ? Status::Ok() : s;
    }
    default:
      return Status::Corruption("unknown namespace record op " + std::to_string(op));
  }
}

Status FileSystem::AdoptRecoveredIntents(std::vector<TagOp> recovered) {
  if (tag_indexer_ != nullptr) {
    tag_indexer_->Seed(std::move(recovered));
    // Live provider: every checkpoint persists whatever the worker has not applied yet
    // (queue + in-flight), so acknowledged intents survive the journal reset that ends
    // the checkpoint. Re-applying an in-flight op after a crash is idempotent. Each
    // shard persists only the intents whose oid it owns — the shard whose journal
    // acknowledged them.
    LazyTagIndexer* indexer = tag_indexer_.get();
    osd::OsdCluster* cluster = cluster_.get();
    cluster_->SetUnappliedForeignProvider([indexer, cluster](size_t shard) {
      std::vector<std::string> payloads;
      for (const TagOp& op : indexer->SnapshotUnapplied()) {
        if (cluster->ShardOf(op.oid) != shard) {
          continue;
        }
        payloads.push_back(EncodeTagOps(kNsIndexIntent, {op}));
      }
      return payloads;
    });
    return Status::Ok();
  }
  // Inline mode adopting a (possibly lazily-written) volume: the deferred forward
  // updates are applied right now. Adds for objects deleted later in the log are
  // skipped; removes always run (NotFound-tolerant) so a pre-crash applied add cannot
  // leave an orphaned posting.
  for (const TagOp& op : recovered) {
    if (op.add && !cluster_->Exists(op.oid)) {
      continue;
    }
    index::IndexStore* store = indexes_->store(op.name.tag);
    if (store == nullptr) {
      return Status::Corruption("recovered intent for unknown store '" + op.name.tag + "'");
    }
    Status s = op.add ? store->Add(op.name.value, op.oid) : store->Remove(op.name.value, op.oid);
    if (!s.ok() && !s.IsNotFound()) {
      return s;
    }
  }
  // Empty provider (not null) so the next checkpoint clears the persisted pending set
  // now that everything in it has been applied.
  cluster_->SetUnappliedForeignProvider([](size_t) { return std::vector<std::string>(); });
  return Status::Ok();
}

// ---------------------------------------------------------------- naming

Result<std::unique_ptr<index::PostingIterator>> FileSystem::OpenQuery(
    const query::Expr& expr, query::PlanStats* stats) const {
  return query_engine_->planner().Plan(expr, stats);
}

Result<query::FindPage> FileSystem::Find(const query::Expr& expr,
                                         const query::FindOptions& options) const {
  metrics::ScopedLatency latency(metrics::Hist::kFind);
  trace::OpScope op("find");
  // Strict visibility under lazy tag indexing: wait out the applied-sequence horizon
  // of every tag the query touches before planning, so any mutation acknowledged
  // before this call is in the postings the plan reads. Relaxed skips straight to the
  // current postings.
  if (tag_indexer_ != nullptr && options.visibility == query::Visibility::kStrict) {
    std::vector<std::string> tags;
    CollectQueryTags(expr, &tags);
    std::sort(tags.begin(), tags.end());
    tags.erase(std::unique(tags.begin(), tags.end()), tags.end());
    HFAD_RETURN_IF_ERROR(tag_indexer_->WaitForTags(tags));
  }
  if (options.explain == nullptr) {
    HFAD_ASSIGN_OR_RETURN(auto it, query_engine_->planner().Plan(expr, options.stats));
    return query::Paginate(it.get(), options);
  }
  // EXPLAIN: plan with node annotation, execute with whole-plan stats on the root, and
  // capture the counter deltas BEFORE the analyze pass — its extra index reads must not
  // pollute the reported pages_read / index_traversals.
  query::Explain* explain = options.explain;
  explain->root = query::PlanNode{};
  explain->planner_optimized = true;
  const stats::Snapshot before = stats::Snapshot::Take();
  HFAD_ASSIGN_OR_RETURN(
      auto it, query_engine_->planner().Plan(expr, &explain->root.stats, &explain->root));
  Result<query::FindPage> page = query::Paginate(it.get(), options);
  const stats::Snapshot delta = stats::Snapshot::Take().Delta(before);
  explain->root.pages_read = delta[stats::Counter::kPageReads];
  explain->root.index_traversals = delta[stats::Counter::kIndexTraversals];
  if (options.stats != nullptr) {
    options.stats->index_lookups += explain->root.stats.index_lookups;
    options.stats->rows_scanned += explain->root.stats.rows_scanned;
    options.stats->intermediate_rows += explain->root.stats.intermediate_rows;
    options.stats->membership_probes += explain->root.stats.membership_probes;
    options.stats->early_exit = options.stats->early_exit || explain->root.stats.early_exit;
  }
  HFAD_RETURN_IF_ERROR(query_engine_->planner().AnalyzeActuals(expr, &explain->root));
  return page;
}

Result<query::FindPage> FileSystem::Find(Slice query_text,
                                         const query::FindOptions& options) const {
  HFAD_ASSIGN_OR_RETURN(std::unique_ptr<query::Expr> expr, query::Parse(query_text));
  return Find(*expr, options);
}

Result<std::vector<ObjectId>> FileSystem::Lookup(const std::vector<TagValue>& terms) const {
  if (terms.empty()) {
    return Status::InvalidArgument("naming lookup needs at least one tag/value pair");
  }
  HFAD_ASSIGN_OR_RETURN(query::FindPage page, Find(*query::Expr::AndTerms(terms)));
  return std::move(page.ids);
}

Result<std::vector<ObjectId>> FileSystem::Query(Slice query_text) const {
  HFAD_ASSIGN_OR_RETURN(query::FindPage page, Find(query_text));
  return std::move(page.ids);
}

Result<std::vector<fulltext::SearchHit>> FileSystem::SearchText(
    const std::vector<std::string>& terms, size_t limit) const {
  SearchTextOptions options;
  options.limit = limit;
  return SearchText(terms, options);
}

Result<std::vector<fulltext::SearchHit>> FileSystem::SearchText(
    const std::vector<std::string>& terms, const SearchTextOptions& options) const {
  metrics::ScopedLatency latency(metrics::Hist::kSearchText);
  trace::OpScope op("search_text");
  if (terms.empty()) {
    return Status::InvalidArgument("empty search");
  }
  // Same normalization contract as the engine's own Search: stopwords and
  // non-indexable terms are rejected, not silently empty.
  std::vector<std::string> normalized;
  normalized.reserve(terms.size());
  for (const std::string& t : terms) {
    std::string norm = fulltext::NormalizeTerm(t);
    if (norm.empty()) {
      return Status::InvalidArgument("term '" + t + "' has no indexable characters");
    }
    if (fulltext::IsStopword(norm)) {
      return Status::InvalidArgument("term '" + norm + "' is a stopword and never indexed");
    }
    normalized.push_back(std::move(norm));
  }
  // Candidate generation through the same planner/iterator path as every other naming
  // entry point; BM25 then scores only the surviving conjunction.
  std::vector<std::unique_ptr<query::Expr>> children;
  children.reserve(normalized.size());
  for (const std::string& norm : normalized) {
    children.push_back(query::Expr::Term(std::string(index::kTagFulltext), norm));
  }
  std::unique_ptr<query::Expr> expr =
      children.size() == 1 ? std::move(children[0]) : query::Expr::And(std::move(children));
  query::FindOptions find_options;
  find_options.visibility = options.visibility;
  HFAD_ASSIGN_OR_RETURN(query::FindPage page, Find(*expr, find_options));
  const auto* ft =
      static_cast<const index::FullTextIndexStore*>(indexes_->store(index::kTagFulltext));
  return ft->engine()->ScoreDocuments(normalized, page.ids, options.limit);
}

SearchCursor FileSystem::OpenCursor() const { return SearchCursor(this); }

NamespaceBatch FileSystem::NewBatch() { return NamespaceBatch(this); }

// ---------------------------------------------------------------- lifecycle

Result<ObjectId> FileSystem::Create(const std::vector<TagValue>& names) {
  metrics::ScopedLatency latency(metrics::Hist::kCreate);
  trace::OpScope op("create");
  // All initial names ride one batch: one shard acquisition, one journal record.
  NamespaceBatch batch = NewBatch();
  HFAD_ASSIGN_OR_RETURN(ObjectId oid, batch.Create(names));
  HFAD_RETURN_IF_ERROR(batch.Commit());
  return oid;
}

Status FileSystem::Remove(ObjectId oid) {
  // The object's tag shard is held from the name scan through the delete: an AddTag or
  // IndexContent on this object either finished before (its name or postings are
  // stripped below) or runs after (and finds no object).
  auto lock = tag_mu_.LockExclusive(oid);
  HFAD_ASSIGN_OR_RETURN(std::vector<TagValue> names, NamesLocked(oid));
  if (!names.empty()) {
    // Every name leaves in one batch, as Create(names) adds them: one record.
    metrics::ScopedLatency latency(metrics::Hist::kBatchCommit);
    trace::OpScope op("batch_commit");
    std::vector<TagOp> ops;
    ops.reserve(names.size());
    for (TagValue& name : names) {
      ops.push_back(TagOp{false, oid, std::move(name)});
    }
    HFAD_RETURN_IF_ERROR(CommitTagOpsLocked(ops));
  }
  // Strip the object's full text, journaled so replay stays in sync, when it has any:
  // IndexContent holds this shard too, so none can appear after the check. A never
  // indexed object takes no credit and writes no record.
  auto* fulltext =
      static_cast<index::FullTextIndexStore*>(indexes_->store(index::kTagFulltext));
  HFAD_ASSIGN_OR_RETURN(bool indexed, fulltext->HasDocument(oid));
  if (indexed) {
    HFAD_ASSIGN_OR_RETURN(auto credit,
                          osd_->ReserveApplyCredit(osd::Osd::CreditUse::kContent));
    uint64_t token = 0;
    HFAD_RETURN_IF_ERROR(
        cluster_->AppendForeign(oid, EncodeOidRecord(kNsUnindexContent, oid), &token));
    HFAD_RETURN_IF_ERROR(fulltext->Remove(Slice(), oid));
    cluster_->MarkForeignApplied(token);
  }
  return cluster_->DeleteObject(oid);
}

// ---------------------------------------------------------------- tags

Status FileSystem::SyncReverseRoot(size_t shard) {
  ReverseShard& rs = reverse_[shard];
  if (rs.tree->root() != rs.root) {
    rs.root = rs.tree->root();
    HFAD_RETURN_IF_ERROR(osd_->SetNamedRoot(ReverseRootName(shard), rs.root));
  }
  return Status::Ok();
}

Status FileSystem::CheckName(const TagValue& name, bool add) const {
  if (add && (name.tag == index::kTagFulltext || name.tag == index::kTagId)) {
    return Status::InvalidArgument("tag '" + name.tag +
                                   "' cannot be assigned manually (use IndexContent for "
                                   "FULLTEXT; IDs are intrinsic)");
  }
  if (indexes_->store(name.tag) == nullptr) {
    return Status::NotFound("no index store for tag '" + name.tag + "'");
  }
  return Status::Ok();
}

Status FileSystem::AddTag(ObjectId oid, const TagValue& name) {
  metrics::ScopedLatency latency(metrics::Hist::kAddTag);
  trace::OpScope op("add_tag");
  HFAD_RETURN_IF_ERROR(CheckName(name, /*add=*/true));
  return CommitTagOps({TagOp{true, oid, name}});
}

Status FileSystem::RemoveTag(ObjectId oid, const TagValue& name) {
  metrics::ScopedLatency latency(metrics::Hist::kRemoveTag);
  trace::OpScope op("remove_tag");
  HFAD_RETURN_IF_ERROR(CheckName(name, /*add=*/false));
  return CommitTagOps({TagOp{false, oid, name}});
}

Status FileSystem::CommitBatch(const std::vector<TagOp>& ops) {
  if (ops.empty()) {
    return Status::Ok();
  }
  metrics::ScopedLatency latency(metrics::Hist::kBatchCommit);
  trace::OpScope op("batch_commit");
  return CommitTagOps(ops);
}

Status FileSystem::CommitTagOps(const std::vector<TagOp>& ops) {
  std::vector<ObjectId> oids;
  oids.reserve(ops.size());
  for (const TagOp& op : ops) {
    oids.push_back(op.oid);
  }
  // Every involved shard once, ascending (the MultiLock deadlock-freedom rule), instead
  // of lock/unlock per tag.
  auto lock = tag_mu_.LockMultiExclusive(oids);
  return CommitTagOpsLocked(ops);
}

Status FileSystem::CommitTagOpsLocked(const std::vector<TagOp>& ops) {
  // Existence once per object that gains a name, under the shard locks so a concurrent
  // Remove (which holds the shard through its delete) cannot slip in between. A removal
  // needs no lookup: the reverse-map check below finds a name only on a live object.
  std::vector<ObjectId> oids;
  std::vector<ObjectId> gaining;
  oids.reserve(ops.size());
  for (const TagOp& op : ops) {
    oids.push_back(op.oid);
    if (op.add) {
      gaining.push_back(op.oid);
    }
  }
  std::sort(gaining.begin(), gaining.end());
  gaining.erase(std::unique(gaining.begin(), gaining.end()), gaining.end());
  for (ObjectId oid : gaining) {
    if (!cluster_->Exists(oid)) {
      return Status::NotFound("no object " + std::to_string(oid));
    }
  }
  // Validate removals against pre-batch state so a journaled record always corresponds
  // to applicable ops.
  for (const TagOp& op : ops) {
    if (!op.add && !reverse_[TagShardOf(op.oid)].tree->Contains(ReverseKey(op.oid, op.name))) {
      return Status::NotFound("object " + std::to_string(op.oid) + " has no name " +
                              op.name.tag + ":" + op.name.value);
    }
  }
  // Lazy: the posting-store half goes to the indexer. Its queue slots are reserved
  // BEFORE the credit and the append: ReserveSlots may block on the worker, and the
  // worker needs credits and the volume lock the append takes shared (a full queue
  // under the volume lock would deadlock against a waiting checkpoint).
  const bool lazy = tag_indexer_ != nullptr;
  std::function<void()> enqueue;
  if (lazy) {
    tag_indexer_->ReserveSlots(ops.size());
    enqueue = [this, queued = ops]() mutable {
      tag_indexer_->EnqueueReserved(std::move(queued));
    };
  }
  // The credit covers the metadata volume's pages the apply below dirties, and comes
  // before the record, so no checkpoint this thread runs falls between the two.
  Result<osd::Osd::JournalCredit> credit = osd_->ReserveApplyCredit(
      osd::Osd::CreditUse::kNaming,
      (lazy ? kLazyTagOpMutations : kInlineTagOpMutations) * ops.size());
  const std::string rec = EncodeTagOps(lazy ? kNsIndexIntent : kNsBatch, ops);
  const bool multi_shard = std::any_of(oids.begin(), oids.end(), [&](ObjectId oid) {
    return cluster_->ShardOf(oid) != cluster_->ShardOf(oids[0]);
  });
  uint64_t token = 0;
  Status s = credit.status();
  if (s.ok() && !multi_shard) {
    // The enqueue rides the append's own volume-lock hold: a checkpoint either sees
    // the record in the journal AND the ops in the queue, or neither — the invariant
    // the pending-set persistence depends on.
    s = cluster_->AppendForeign(oids[0], rec, enqueue, &token);
  } else if (s.ok()) {
    // Atomic across owners: prepares on every participant, commit on the coordinator,
    // all durable before any op applies (src/osd/osd_cluster.h). The gap between
    // commit and enqueue is covered by the retention lists: the token is unmarked, so
    // every participant's checkpoint persists the record.
    Result<uint64_t> committed = cluster_->CommitForeignBatch(oids, rec);
    s = committed.status();
    token = committed.value_or(0);
    if (s.ok() && enqueue) {
      enqueue();
    }
  }
  if (!s.ok()) {
    if (lazy) {
      tag_indexer_->ReleaseSlots(ops.size());
    }
    return s;
  }
  // In order: the posting stores here unless the indexer applies them, then the
  // reverse map, each touched shard's root synced once.
  std::vector<size_t> shards;
  for (const TagOp& op : ops) {
    if (!lazy) {
      index::IndexStore* store = indexes_->store(op.name.tag);
      HFAD_RETURN_IF_ERROR(op.add ? store->Add(op.name.value, op.oid)
                                  : store->Remove(op.name.value, op.oid));
    }
    const size_t shard = TagShardOf(op.oid);
    shards.push_back(shard);
    btree::BTree* reverse = reverse_[shard].tree.get();
    const std::string key = ReverseKey(op.oid, op.name);
    s = op.add ? reverse->Put(key, Slice()) : reverse->Delete(key);
    if (!s.ok() && !s.IsNotFound()) {
      return s;
    }
  }
  std::sort(shards.begin(), shards.end());
  shards.erase(std::unique(shards.begin(), shards.end()), shards.end());
  for (size_t shard : shards) {
    HFAD_RETURN_IF_ERROR(SyncReverseRoot(shard));
  }
  cluster_->MarkForeignApplied(token);
  return Status::Ok();
}

Result<std::vector<TagValue>> FileSystem::Tags(ObjectId oid) const {
  auto lock = tag_mu_.LockShared(oid);
  return NamesLocked(oid);
}

Result<std::vector<TagValue>> FileSystem::NamesLocked(ObjectId oid) const {
  if (!cluster_->Exists(oid)) {
    return Status::NotFound("no object " + std::to_string(oid));
  }
  std::vector<TagValue> out;
  std::string prefix = OidBytes(oid);
  HFAD_RETURN_IF_ERROR(reverse_[TagShardOf(oid)].tree->ScanPrefix(
      prefix, [&](Slice key, Slice) {
        out.push_back(
            DecodeNameSuffix(Slice(key.data() + prefix.size(), key.size() - prefix.size())));
        return true;
      }));
  return out;
}

bool FileSystem::HasName(ObjectId oid, const TagValue& name) const {
  auto lock = tag_mu_.LockShared(oid);
  return reverse_[TagShardOf(oid)].tree->Contains(ReverseKey(oid, name));
}

Status FileSystem::ScanAllNames(
    const std::function<bool(ObjectId, const TagValue&)>& fn) const {
  // The reverse map is striped by oid, but the contract is a global scan in oid order:
  // visit shards one at a time (each under its shared lock), gather a snapshot, and
  // merge. Keys start with the big-endian oid, so a plain sort restores global
  // (oid, tag, value) order across shards. Shard-at-a-time gives the same per-shard
  // consistency as StripedMap::ForEach — mutations racing the scan land before or
  // after their shard's visit, never mid-shard — while keeping hold times short (and
  // staying under ThreadSanitizer's 64-held-locks ceiling). The locks are dropped
  // before the callbacks run, so fn may call back into the FileSystem freely; it sees
  // the snapshot.
  std::vector<std::string> keys;
  for (size_t shard = 0; shard < kTagShards; shard++) {
    auto lock = tag_mu_.LockShardShared(shard);
    HFAD_RETURN_IF_ERROR(reverse_[shard].tree->Scan("", "", [&](Slice key, Slice) {
      keys.push_back(key.ToString());
      return true;
    }));
  }
  std::sort(keys.begin(), keys.end());
  for (const std::string& key : keys) {
    if (key.size() < 9) {
      continue;  // Malformed; fsck reports it via the forward pass.
    }
    ObjectId oid = OidFromKey(key);
    TagValue tv = DecodeNameSuffix(Slice(key.data() + 8, key.size() - 8));
    if (!fn(oid, tv)) {
      return Status::Ok();
    }
  }
  return Status::Ok();
}

Status FileSystem::IndexObjectContent(const osd::Osd* data, index::IndexCollection* indexes,
                                      ObjectId oid) {
  HFAD_ASSIGN_OR_RETURN(uint64_t size, data->Size(oid));
  std::string content;
  HFAD_RETURN_IF_ERROR(data->Read(oid, 0, size, &content));
  return indexes->store(index::kTagFulltext)->Add(content, oid);
}

Status FileSystem::IndexContent(ObjectId oid) {
  // Existence under the shard lock, so a concurrent Remove's strip cannot miss us.
  auto lock = tag_mu_.LockExclusive(oid);
  if (!cluster_->Exists(oid)) {
    return Status::NotFound("no object " + std::to_string(oid));
  }
  HFAD_ASSIGN_OR_RETURN(auto credit, osd_->ReserveApplyCredit(osd::Osd::CreditUse::kContent));
  uint64_t token = 0;
  HFAD_RETURN_IF_ERROR(
      cluster_->AppendForeign(oid, EncodeOidRecord(kNsIndexContent, oid), &token));
  HFAD_RETURN_IF_ERROR(IndexObjectContent(cluster_->owner(oid), indexes_.get(), oid));
  cluster_->MarkForeignApplied(token);
  return Status::Ok();
}

Status FileSystem::WaitForTagIndexing() {
  if (tag_indexer_ == nullptr) {
    return Status::Ok();
  }
  return tag_indexer_->Drain();
}

std::vector<std::pair<ObjectId, TagValue>> FileSystem::PendingIndexIntents() const {
  std::vector<std::pair<ObjectId, TagValue>> out;
  if (tag_indexer_ == nullptr) {
    return out;
  }
  for (const LazyTagIndexer::Op& op : tag_indexer_->SnapshotUnapplied()) {
    out.emplace_back(op.oid, op.name);
  }
  return out;
}

// ---------------------------------------------------------------- access

Status FileSystem::Read(ObjectId oid, uint64_t offset, size_t n, std::string* out) const {
  return cluster_->Read(oid, offset, n, out);
}

Status FileSystem::Write(ObjectId oid, uint64_t offset, Slice data) {
  return cluster_->Write(oid, offset, data);
}

Status FileSystem::Insert(ObjectId oid, uint64_t offset, Slice data) {
  return cluster_->Insert(oid, offset, data);
}

Status FileSystem::Truncate(ObjectId oid, uint64_t offset, uint64_t length) {
  return cluster_->RemoveRange(oid, offset, length);
}

Result<uint64_t> FileSystem::Size(ObjectId oid) const { return cluster_->Size(oid); }

Result<osd::ObjectMeta> FileSystem::Stat(ObjectId oid) const { return cluster_->Stat(oid); }

Status FileSystem::SetAttributes(ObjectId oid, uint32_t mode, uint32_t uid, uint32_t gid) {
  return cluster_->SetAttributes(oid, mode, uid, gid);
}

Status FileSystem::Sync() {
  metrics::ScopedLatency latency(metrics::Hist::kSync);
  return cluster_->Sync();
}

Status FileSystem::Checkpoint() { return cluster_->Checkpoint(); }

// ---------------------------------------------------------------- observability

std::string FileSystem::DumpMetrics() const {
  metrics::JsonWriter w;
  w.BeginObject();
  w.Key("schema_version").Value(uint64_t{1});
  w.Key("scope").Value("filesystem");
  metrics::WriteCountersJson(&w);
  metrics::WriteHistogramsJson(&w);

  // Gauges aggregate across shards (sums for counts, max for occupancy and accounted
  // fill — the shard closest to a forced checkpoint is the one that matters) so the
  // top-level keys keep their single-volume meaning; the per-shard breakdown follows.
  double occupancy = 0.0;
  double reserved = 0.0;
  uint64_t pending_records = 0, resident_pages = 0, dirty_pages = 0;
  uint64_t io_submitted = 0, io_completed = 0, io_in_flight = 0, io_max_qd = 0;
  uint64_t scrub_passes = 0, quarantined = 0;
  bool checksums_enabled = false;
  for (size_t k = 0; k < cluster_->shard_count(); k++) {
    osd::Osd* shard = cluster_->shard(k);
    occupancy = std::max(occupancy, shard->journal_occupancy());
    reserved = std::max(reserved, shard->journal_reserved());
    pending_records += shard->journal_pending_records();
    resident_pages += shard->pager()->cached_pages();
    dirty_pages += shard->pager()->dirty_pages();
    checksums_enabled = checksums_enabled || shard->checksums() != nullptr;
    if (shard->scrubber() != nullptr) {
      scrub_passes += shard->scrubber()->passes();
    }
    if (shard->checksums() != nullptr) {
      quarantined += shard->checksums()->QuarantinedPages().size();
    }
    const io::IoEngine* eng = shard->io_engine();
    io_submitted += eng->submitted();
    io_completed += eng->completed();
    io_in_flight += eng->in_flight();
    io_max_qd = std::max(io_max_qd, eng->max_queue_depth());
  }
  const HealthState worst_health = cluster_->worst_health();
  w.Key("gauges").BeginObject();
  w.Key("journal_occupancy_pct").Value(occupancy * 100.0);
  w.Key("journal_reserved_pct").Value(reserved * 100.0);
  w.Key("journal_pending_records").Value(pending_records);
  w.Key("pager_resident_pages").Value(resident_pages);
  w.Key("pager_dirty_pages").Value(dirty_pages);
  w.Key("io_submitted").Value(io_submitted);
  w.Key("io_completed").Value(io_completed);
  w.Key("io_in_flight").Value(io_in_flight);
  w.Key("io_max_queue_depth").Value(io_max_qd);
  w.Key("indexer_queue_depth")
      .Value(static_cast<uint64_t>(tag_indexer_ != nullptr ? tag_indexer_->PendingCount() : 0));
  w.Key("checkpointer_state").Value(static_cast<int64_t>(osd_->checkpointer_state()));
  w.Key("object_count").Value(cluster_->object_count());
  w.Key("shard_count").Value(static_cast<uint64_t>(cluster_->shard_count()));
  w.Key("retained_records").Value(static_cast<uint64_t>(cluster_->retained_records()));
  w.Key("volume_health").Value(static_cast<int64_t>(worst_health));
  w.Key("volume_health_name").Value(std::string(HealthStateName(worst_health)));
  w.Key("checksums_enabled").Value(static_cast<uint64_t>(checksums_enabled ? 1 : 0));
  w.Key("scrub_passes").Value(scrub_passes);
  w.Key("quarantined_pages").Value(quarantined);
  w.EndObject();

  w.Key("shards").BeginArray();
  for (size_t k = 0; k < cluster_->shard_count(); k++) {
    osd::Osd* shard = cluster_->shard(k);
    w.BeginObject();
    w.Key("shard").Value(static_cast<uint64_t>(k));
    w.Key("journal_occupancy_pct").Value(shard->journal_occupancy() * 100.0);
    w.Key("journal_reserved_pct").Value(shard->journal_reserved() * 100.0);
    w.Key("journal_pending_records").Value(shard->journal_pending_records());
    w.Key("pager_resident_pages")
        .Value(static_cast<uint64_t>(shard->pager()->cached_pages()));
    w.Key("pager_dirty_pages").Value(static_cast<uint64_t>(shard->pager()->dirty_pages()));
    w.Key("checkpointer_state").Value(static_cast<int64_t>(shard->checkpointer_state()));
    w.Key("object_count").Value(shard->object_count());
    w.Key("retained_records")
        .Value(static_cast<uint64_t>(cluster_->retained_records(k)));
    w.Key("volume_health").Value(static_cast<int64_t>(shard->health_state()));
    w.EndObject();
  }
  w.EndArray();

  w.Key("locks").BeginObject();
  WriteLockStatsJson(&w, "tag_shards", tag_mu_);
  w.Key("pager_stripes").BeginObject();
  w.Key("total_acquisitions").Value(osd_->pager()->stripe_lock_acquisitions());
  w.Key("total_contentions").Value(osd_->pager()->stripe_lock_contentions());
  w.Key("top_contended").BeginArray();
  for (const auto& st : osd_->pager()->TopContendedStripes(4)) {
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

// ---------------------------------------------------------------- SearchCursor

Status SearchCursor::Refine(const TagValue& term) {
  if (fs_->indexes()->store(term.tag) == nullptr) {
    return Status::NotFound("no index store for tag '" + term.tag + "'");
  }
  path_.push_back(term);
  return Status::Ok();
}

Status SearchCursor::Up() {
  if (!path_.empty()) {
    path_.pop_back();
  }
  return Status::Ok();
}

Result<query::FindPage> SearchCursor::ResultsPage(const query::FindOptions& options) const {
  if (path_.empty()) {
    // Root: page over every object on the volume in oid order, seeking straight to the
    // keyset anchor — no page ever rescans the table head up to `after`.
    query::FindPage page;
    const ObjectId after = options.after;
    if (after == std::numeric_limits<ObjectId>::max()) {
      return page;  // Nothing can follow the maximal oid.
    }
    HFAD_RETURN_IF_ERROR(fs_->cluster()->ScanObjects(
        after + 1, [&](ObjectId oid, const osd::ObjectMeta&) {
          if (options.limit != 0 && page.ids.size() == options.limit) {
            page.has_more = true;
            page.next_after = page.ids.back();
            return false;
          }
          page.ids.push_back(oid);
          return true;
        }));
    return page;
  }
  return fs_->Find(*query::Expr::AndTerms(path_), options);
}

Result<std::vector<ObjectId>> SearchCursor::Results() const {
  query::FindOptions options;
  options.limit = kDefaultResultLimit;
  options.visibility = visibility_;
  HFAD_ASSIGN_OR_RETURN(query::FindPage page, ResultsPage(options));
  return std::move(page.ids);
}

// ---------------------------------------------------------------- NamespaceBatch

Status NamespaceBatch::AddTag(ObjectId oid, const TagValue& name) {
  HFAD_RETURN_IF_ERROR(fs_->CheckName(name, /*add=*/true));
  ops_.push_back(FileSystem::TagOp{true, oid, name});
  return Status::Ok();
}

Status NamespaceBatch::RemoveTag(ObjectId oid, const TagValue& name) {
  HFAD_RETURN_IF_ERROR(fs_->CheckName(name, /*add=*/false));
  ops_.push_back(FileSystem::TagOp{false, oid, name});
  return Status::Ok();
}

Result<ObjectId> NamespaceBatch::Create(const std::vector<TagValue>& names) {
  for (const TagValue& name : names) {
    HFAD_RETURN_IF_ERROR(fs_->CheckName(name, /*add=*/true));
  }
  HFAD_ASSIGN_OR_RETURN(ObjectId oid, fs_->cluster_->CreateObject());
  for (const TagValue& name : names) {
    ops_.push_back(FileSystem::TagOp{true, oid, name});
  }
  return oid;
}

Status NamespaceBatch::Commit() {
  HFAD_RETURN_IF_ERROR(fs_->CommitBatch(ops_));
  ops_.clear();
  return Status::Ok();
}

}  // namespace core
}  // namespace hfad
