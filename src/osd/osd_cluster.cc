#include "src/osd/osd_cluster.h"

#include <algorithm>
#include <condition_variable>
#include <limits>
#include <numeric>
#include <utility>

#include "src/common/coding.h"
#include "src/osd/scrubber.h"

namespace hfad {
namespace osd {

// ---------------------------------------------------------------- construction

Result<std::unique_ptr<OsdCluster>> OsdCluster::Create(
    std::vector<std::shared_ptr<BlockDevice>> devices, const OsdOptions& options) {
  if (devices.empty()) {
    return Status::InvalidArgument("cluster needs at least one device");
  }
  std::unique_ptr<OsdCluster> cluster(new OsdCluster());
  const size_t n = devices.size();
  cluster->n_ = n;
  cluster->journaling_ = options.journaling;
  cluster->retained_.resize(n);
  for (size_t k = 0; k < n; k++) {
    HFAD_ASSIGN_OR_RETURN(std::unique_ptr<Osd> osd,
                          Osd::Create(std::move(devices[k]), options));
    // Stamp and checkpoint each shard so a crash right after Create still leaves an
    // openable, correctly-identified cluster.
    HFAD_RETURN_IF_ERROR(osd->SetNamedRoot(kShardStampRoot, ShardStamp(n, k)));
    HFAD_RETURN_IF_ERROR(osd->Checkpoint());
    cluster->InstallShardProvider(k, osd.get());
    cluster->osds_.push_back(std::move(osd));
  }
  cluster->InstallCheckpointHooks();
  return cluster;
}

Result<std::unique_ptr<OsdCluster>> OsdCluster::Open(
    std::vector<std::shared_ptr<BlockDevice>> devices, const OsdOptions& options,
    ForeignReplayFn replay_foreign) {
  if (devices.empty()) {
    return Status::InvalidArgument("cluster needs at least one device");
  }
  std::unique_ptr<OsdCluster> cluster(new OsdCluster());
  const size_t n = devices.size();
  cluster->n_ = n;
  cluster->journaling_ = options.journaling;
  cluster->hook_ = std::move(replay_foreign);
  cluster->retained_.resize(n);
  cluster->adopted_.assign(n, false);
  OsdCluster* raw = cluster.get();
  // Shards open in index order. The coordinator of any batch is its minimum
  // participant index, so a batch's verdict (commit record present or not) is always
  // established before a higher shard's prepare record replays.
  for (size_t k = 0; k < n; k++) {
    HFAD_ASSIGN_OR_RETURN(std::unique_ptr<Osd> osd,
                          Osd::Open(std::move(devices[k]), options,
                                    [raw, k](Osd* volume, Slice payload) {
                                      return raw->ReplayShardRecord(k, volume, payload);
                                    }));
    // A shard whose recovery replayed no cluster record is adopted here.
    HFAD_RETURN_IF_ERROR(cluster->AdoptShard(k, osd.get()));
    cluster->osds_.push_back(std::move(osd));
    // Coordinator-side prepares whose commit never appeared in this shard's stream:
    // the commit was never durable, so the batch is uncommitted — discard.
    cluster->open_deferred_.clear();
  }
  uint64_t next = 1;
  for (const auto& osd : cluster->osds_) {
    next = std::max(next, osd->next_object_id());
  }
  cluster->next_oid_.store(next);
  cluster->next_batch_id_.store(cluster->max_batch_id_seen_ + 1);
  cluster->InstallCheckpointHooks();
  return cluster;
}

OsdCluster::~OsdCluster() { (void)Close(); }

Status OsdCluster::Close() {
  // Metadata shard first: its checkpoint makes every cross-shard effect durable and
  // trims the retention lists, so the data shards then close with (near-)empty pending
  // sets. Every shard is closed even if an earlier one fails.
  Status first;
  for (auto& osd : osds_) {
    Status s = osd->Close();
    if (first.ok() && !s.ok()) {
      first = s;
    }
  }
  return first;
}

// ---------------------------------------------------------------- object ops

Result<ObjectId> OsdCluster::CreateObject() {
  const ObjectId oid = next_oid_.fetch_add(1);
  return osds_[ShardOf(oid)]->CreateObjectAt(oid);
}

uint64_t OsdCluster::object_count() const {
  uint64_t total = 0;
  for (const auto& osd : osds_) {
    total += osd->object_count();
  }
  return total;
}

Status OsdCluster::ScanObjects(
    ObjectId start, const std::function<bool(ObjectId, const ObjectMeta&)>& fn) const {
  if (n_ == 1) {
    return osds_[0]->ScanObjects(start, fn);
  }
  // K-way merge over per-shard ordered scans. Each head is fetched with a one-item
  // seek, so a capped consumer (cursor pagination) costs O(page * shards * log n)
  // instead of a full sweep.
  struct Head {
    bool valid = false;
    ObjectId oid = 0;
    ObjectMeta meta;
  };
  std::vector<Head> heads(n_);
  auto refill = [&](size_t k, ObjectId from) -> Status {
    heads[k].valid = false;
    return osds_[k]->ScanObjects(from, [&](ObjectId oid, const ObjectMeta& meta) {
      heads[k].valid = true;
      heads[k].oid = oid;
      heads[k].meta = meta;
      return false;
    });
  };
  for (size_t k = 0; k < n_; k++) {
    HFAD_RETURN_IF_ERROR(refill(k, start));
  }
  for (;;) {
    size_t best = n_;
    for (size_t k = 0; k < n_; k++) {
      if (heads[k].valid && (best == n_ || heads[k].oid < heads[best].oid)) {
        best = k;
      }
    }
    if (best == n_) {
      return Status::Ok();
    }
    if (!fn(heads[best].oid, heads[best].meta)) {
      return Status::Ok();
    }
    if (heads[best].oid == std::numeric_limits<ObjectId>::max()) {
      heads[best].valid = false;
      continue;
    }
    HFAD_RETURN_IF_ERROR(refill(best, heads[best].oid + 1));
  }
}

// ---------------------------------------------------------------- durability

Status OsdCluster::Sync() {
  std::vector<size_t> all(n_);
  std::iota(all.begin(), all.end(), size_t{0});
  return SyncShards(all);
}

Status OsdCluster::SyncShards(const std::vector<size_t>& shards) {
  // Completions land on each journal's engine thread, so the join takes only its own
  // leaf mutex there and never blocks. Shared, so the last completion may still be
  // unlocking it when this thread returns.
  struct Join {
    std::mutex mu;
    std::condition_variable cv;
    size_t left = 0;
    std::vector<Status> results;
  };
  auto join = std::make_shared<Join>();
  join->left = shards.size();
  join->results.resize(shards.size());
  // Attempt every shard even after a failure: a degraded shard must not starve the
  // healthy ones of durability.
  for (size_t i = 0; i < shards.size(); i++) {
    osds_[shards[i]]->SyncAsync([join, i](Status s) {
      std::lock_guard<std::mutex> lock(join->mu);
      join->results[i] = std::move(s);
      if (--join->left == 0) {
        join->cv.notify_one();
      }
    });
  }
  std::unique_lock<std::mutex> lock(join->mu);
  join->cv.wait(lock, [&] { return join->left == 0; });
  for (Status& s : join->results) {
    if (!s.ok()) {
      return std::move(s);
    }
  }
  return Status::Ok();
}

Status OsdCluster::Checkpoint() {
  // Index order puts the metadata shard first; see Close() for why that matters.
  // As with Sync, an unhealthy shard does not block the others' checkpoints.
  Status first;
  for (auto& osd : osds_) {
    Status s = osd->Checkpoint();
    if (first.ok() && !s.ok()) {
      first = s;
    }
  }
  return first;
}

// ---------------------------------------------------------------- health

HealthState OsdCluster::worst_health() const {
  HealthState worst = HealthState::kHealthy;
  for (const auto& osd : osds_) {
    worst = std::max(worst, osd->health_state());
  }
  return worst;
}

Status OsdCluster::ScrubAll(ScrubReport* total) {
  if (total != nullptr) {
    *total = ScrubReport{};
  }
  Status first;
  for (auto& osd : osds_) {
    ScrubReport one;
    Status s = osd->ScrubNow(&one);
    if (first.ok() && !s.ok()) {
      first = s;
    }
    if (total != nullptr) {
      total->pages_scanned += one.pages_scanned;
      total->errors_found += one.errors_found;
      total->pages_repaired += one.pages_repaired;
      total->pages_quarantined += one.pages_quarantined;
      total->io_errors += one.io_errors;
    }
  }
  return first;
}

// ---------------------------------------------------------------- foreign records

Status OsdCluster::AppendForeign(ObjectId oid, Slice payload, uint64_t* token_out) {
  return AppendForeign(oid, payload, nullptr, token_out);
}

Status OsdCluster::AppendForeign(ObjectId oid, Slice payload,
                                 const std::function<void()>& with_lock,
                                 uint64_t* token_out) {
  if (token_out != nullptr) {
    *token_out = 0;
  }
  const size_t k = ShardOf(oid);
  std::string rec;
  rec.reserve(payload.size() + 1);
  rec.push_back(static_cast<char>(kCfPlain));
  rec.append(payload.data(), payload.size());
  // Records on the metadata shard itself need no retention: record and effects share a
  // checkpoint, the same durability contract as a single volume.
  const bool retain = journaling_ && k != 0;
  const uint64_t token = retain ? next_token_.fetch_add(1) : 0;
  // No callback when there is nothing to run under the lock: a record appended with one
  // counts as possibly outliving the next checkpoint in the shard's pending set.
  Status s = !retain && !with_lock ? osds_[k]->AppendForeign(rec)
                                   : osds_[k]->AppendForeign(rec, [&] {
                                       if (retain) {
                                         Retain(k, rec, token);
                                       }
                                       if (with_lock) {
                                         with_lock();
                                       }
                                     });
  HFAD_RETURN_IF_ERROR(s);
  if (token_out != nullptr) {
    *token_out = token;
  }
  return Status::Ok();
}

Result<uint64_t> OsdCluster::CommitForeignBatch(const std::vector<ObjectId>& oids,
                                                Slice payload) {
  std::vector<size_t> parts;
  parts.reserve(oids.size());
  for (ObjectId oid : oids) {
    parts.push_back(ShardOf(oid));
  }
  std::sort(parts.begin(), parts.end());
  parts.erase(std::unique(parts.begin(), parts.end()), parts.end());
  if (parts.size() < 2) {
    return Status::InvalidArgument("cross-shard batch needs at least two owner shards");
  }
  if (!journaling_) {
    return uint64_t{0};  // Checkpoint durability only, like every other mutation.
  }
  const size_t coord = parts[0];
  const uint64_t batch_id = next_batch_id_.fetch_add(1);
  const uint64_t token = next_token_.fetch_add(1);

  std::string prep;
  prep.reserve(payload.size() + 16);
  prep.push_back(static_cast<char>(kCfPrepare));
  PutFixed64(&prep, batch_id);
  PutVarint64(&prep, coord);
  prep.append(payload.data(), payload.size());
  // Appended one shard at a time (never two volume locks at once), synced together.
  for (size_t k : parts) {
    Status s = osds_[k]->AppendForeign(prep, [&] { Retain(k, prep, token); });
    if (!s.ok()) {
      // No commit record can exist: recovery discards the orphan prepares, so their
      // retained copies may be dropped as soon as the metadata shard checkpoints.
      MarkForeignApplied(token);
      return s;
    }
  }
  Status synced = SyncShards(parts);
  if (!synced.ok()) {
    MarkForeignApplied(token);
    return synced;
  }

  std::string com;
  com.push_back(static_cast<char>(kCfCommit));
  PutFixed64(&com, batch_id);
  // Point of no return: once the commit append is attempted it may be (partially)
  // durable, so on error the retained records are deliberately NOT marked applied —
  // they stay in every participant's pending set until a recovery resolves the batch
  // one way for all shards.
  HFAD_RETURN_IF_ERROR(osds_[coord]->AppendForeign(com, [&] { Retain(coord, com, token); }));
  // The commit must be durable before the caller applies the ops and releases its
  // locks: recovery's discard rule assumes no later record depends on an uncommitted
  // batch.
  HFAD_RETURN_IF_ERROR(osds_[coord]->Sync());
  return token;
}

void OsdCluster::MarkForeignApplied(uint64_t token) {
  if (token == 0) {
    return;
  }
  std::lock_guard<std::mutex> lock(retained_mu_);
  applied_tokens_.insert(token);
}

void OsdCluster::SetUnappliedForeignProvider(UnappliedProviderFn fn) {
  // Every shard's provider reads higher_provider_ when it is called.
  std::lock_guard<std::mutex> lock(provider_mu_);
  higher_provider_ = std::move(fn);
}

size_t OsdCluster::retained_records() const {
  std::lock_guard<std::mutex> lock(retained_mu_);
  size_t total = 0;
  for (const auto& list : retained_) {
    total += list.size();
  }
  return total;
}

size_t OsdCluster::retained_records(size_t shard) const {
  std::lock_guard<std::mutex> lock(retained_mu_);
  return retained_[shard].size();
}

// ---------------------------------------------------------------- retention

void OsdCluster::InstallCheckpointHooks() {
  Osd* meta = osds_[0].get();
  meta->SetCheckpointCallback([this] { TrimRetained(); });
  for (size_t k = 1; k < n_; k++) {
    // Async kick only: RequestCheckpoint never waits for the checkpoint.
    osds_[k]->SetKickCallback([meta] { meta->RequestCheckpoint(); });
  }
}

void OsdCluster::Retain(size_t k, std::string payload, uint64_t token) {
  std::lock_guard<std::mutex> lock(retained_mu_);
  retained_[k].push_back(Retained{std::move(payload), token});
}

void OsdCluster::RetainReplayed(size_t k, Slice payload) {
  std::lock_guard<std::mutex> lock(retained_mu_);
  const uint64_t token = next_token_.fetch_add(1);
  retained_[k].push_back(Retained{payload.ToString(), token, true});
  // Replayed records are applied to metadata state as part of recovery itself, so the
  // next metadata-shard checkpoint may drop them.
  applied_tokens_.insert(token);
}

void OsdCluster::TrimRetained() {
  std::lock_guard<std::mutex> lock(retained_mu_);
  if (applied_tokens_.empty()) {
    return;
  }
  for (auto& list : retained_) {
    list.erase(std::remove_if(list.begin(), list.end(),
                              [&](const Retained& r) {
                                return applied_tokens_.count(r.token) != 0;
                              }),
               list.end());
  }
  // Every entry of every marked token was just swept (all shards, one critical
  // section), so the marks have no further referents.
  applied_tokens_.clear();
}

// ---------------------------------------------------------------- recovery

Status OsdCluster::AdoptShard(size_t k, Osd* volume) {
  if (adopted_[k]) {
    return Status::Ok();
  }
  HFAD_ASSIGN_OR_RETURN(uint64_t stamp, volume->GetNamedRoot(kShardStampRoot));
  if (stamp == 0) {
    return Status::InvalidArgument(
        "device " + std::to_string(k) + " has no cluster shard stamp (" +
        kShardStampRoot + "): a bare Osd volume, or one written before every cluster "
        "volume was stamped");
  }
  if (stamp != ShardStamp(n_, k)) {
    return Status::InvalidArgument("device " + std::to_string(k) + " is not shard " +
                                   std::to_string(k) + " of a " + std::to_string(n_) +
                                   "-shard cluster");
  }
  InstallShardProvider(k, volume);
  adopted_[k] = true;
  return Status::Ok();
}

void OsdCluster::InstallShardProvider(size_t k, Osd* volume) {
  volume->SetUnappliedForeignProvider([this, k]() {
    std::vector<std::string> out;
    {
      std::lock_guard<std::mutex> lock(retained_mu_);
      out.reserve(retained_[k].size());
      for (const Retained& r : retained_[k]) {
        // The metadata shard's own records of a batch a live op has applied: the
        // checkpoint taking this snapshot captures the batch's effects, so persisting
        // them would make recovery apply the batch again, after later ops (a name added
        // to an object since removed would come back). Replayed records stay: shards
        // replayed after this one's recovery checkpoint resolve their prepares against
        // its commit until it checkpoints again.
        if (k == 0 && !r.replayed && applied_tokens_.count(r.token) != 0) {
          continue;
        }
        out.push_back(r.payload);
      }
    }
    UnappliedProviderFn higher;
    {
      std::lock_guard<std::mutex> lock(provider_mu_);
      higher = higher_provider_;
    }
    if (higher) {
      std::vector<std::string> payloads = higher(k);
      for (std::string& p : payloads) {
        std::string rec;
        rec.reserve(p.size() + 1);
        rec.push_back(static_cast<char>(kCfPlain));
        rec.append(p);
        out.push_back(std::move(rec));
      }
    }
    return out;
  });
}

Status OsdCluster::ReplayShardRecord(size_t k, Osd* volume, Slice payload) {
  // Check the stamp before any record applies, so a volume that is not this shard is
  // refused before a misread record can reach the hook; and install the shard's
  // provider, since Osd::Open ends with a checkpoint that resets the journal, and by
  // then the retention list must be what carries these records forward.
  HFAD_RETURN_IF_ERROR(AdoptShard(k, volume));
  if (payload.empty()) {
    return Status::Corruption("empty cluster record");
  }
  const uint8_t kind = static_cast<uint8_t>(payload[0]);
  Slice in = payload;
  in.RemovePrefix(1);
  switch (kind) {
    case kCfPlain: {
      if (!hook_) {
        return Status::Corruption("cluster record but no replay hook");
      }
      HFAD_RETURN_IF_ERROR(hook_(MetaForReplay(k, volume), volume, this, k, false, in));
      if (k != 0) {
        RetainReplayed(k, payload);
      }
      return Status::Ok();
    }
    case kCfPrepare: {
      uint64_t batch_id = 0, coord = 0;
      if (!GetFixed64(&in, &batch_id) || !GetVarint64(&in, &coord)) {
        return Status::Corruption("bad cluster prepare record");
      }
      max_batch_id_seen_ = std::max(max_batch_id_seen_, batch_id);
      if (coord == k) {
        // Our own commit record, if it exists, is later in this same stream.
        open_deferred_.push_back(
            DeferredPrepare{batch_id, payload.ToString(), in.ToString()});
        return Status::Ok();
      }
      if (committed_.count(batch_id) == 0) {
        // The coordinator (a lower shard, already recovered) has no commit record:
        // the batch never committed. Discard.
        return Status::Ok();
      }
      if (!hook_) {
        return Status::Corruption("cluster record but no replay hook");
      }
      HFAD_RETURN_IF_ERROR(hook_(MetaForReplay(k, volume), volume, this, k, true, in));
      RetainReplayed(k, payload);
      return Status::Ok();
    }
    case kCfCommit: {
      uint64_t batch_id = 0;
      if (!GetFixed64(&in, &batch_id)) {
        return Status::Corruption("bad cluster commit record");
      }
      max_batch_id_seen_ = std::max(max_batch_id_seen_, batch_id);
      committed_.insert(batch_id);
      for (auto it = open_deferred_.begin(); it != open_deferred_.end();) {
        if (it->batch_id == batch_id) {
          if (!hook_) {
            return Status::Corruption("cluster record but no replay hook");
          }
          HFAD_RETURN_IF_ERROR(
              hook_(MetaForReplay(k, volume), volume, this, k, true, Slice(it->inner)));
          RetainReplayed(k, it->framed);
          it = open_deferred_.erase(it);
        } else {
          ++it;
        }
      }
      RetainReplayed(k, payload);
      return Status::Ok();
    }
    default:
      return Status::Corruption("unknown cluster record kind " + std::to_string(kind));
  }
}

}  // namespace osd
}  // namespace hfad
