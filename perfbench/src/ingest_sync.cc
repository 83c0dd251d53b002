// ingest_sync: durability-bound ingest on four shards.
//
// Four clients, closed loop, each op made durable by FileSystem::Sync before the next:
// 50% tagged Create (4 names, 0.25-4 KiB body), 25% AddTag/RemoveTag on an own object,
// 15% cross-shard NamespaceBatch over 4 own objects, 10% Remove of the oldest own
// objects down to the client's preload of 256 (at least one), so the live set stays at
// that size whatever the seed. Lazy tag indexing acknowledges tag mutations before the
// posting stores apply them. Each client's model is exact: it touches only its own
// objects.
//
// Run-end oracle: the tag indexer drains and a checkpoint makes the window durable in
// place; then each client creates 64 more objects, unnamed, with bodies, that only the
// journals make durable; background work settles and power is cut to all four devices
// at once. The FileSystem is destroyed and a fresh one opened from the durable images
// alone: every acknowledged create, name, batch and remove must be there, every body
// byte-exact, and fsck clean. The journal tail is kept to unnamed creates because at
// this commit three kinds of record do not survive a cut before their checkpoint: a
// Remove (replaying the delete reads an extent-tree block already freed and reused, so
// the reopen fails), a tag removal (the name can come back), and a name added under
// lazy indexing (its posting can be missing, so fsck reports the reverse name without a
// forward entry). Those are findings for a crash explorer, not numbers for this
// benchmark; names and removals are checked through the checkpoint.
#include <deque>
#include <thread>

#include "perfbench/src/gen.h"
#include "perfbench/src/harness.h"
#include "perfbench/src/workloads.h"
#include "src/core/fsck.h"

namespace perfbench {
namespace {

using hfad::Status;
using hfad::core::FileSystem;

constexpr int kClients = 4;
constexpr size_t kShards = 4;
constexpr uint64_t kShardHeap = 32 * kMiB;
// Checkpoints come mostly from the cluster's kick after cross-shard batches (hundreds
// per run on every shard); at 8 MiB journal occupancy never forces one as well.
constexpr uint64_t kJournal = 8 * kMiB;
constexpr size_t kExtraTagsMax = 3;
constexpr size_t kBatchObjects = 4;
constexpr size_t kPreloadPerClient = 256;
constexpr size_t kLiveMin = 2 * kBatchObjects;
constexpr size_t kTailOpsPerClient = 64;

enum Kind : uint32_t { kCreate = 0, kTag, kBatch, kRemove };

struct Obj {
  ObjectId oid = 0;
  uint64_t body_key = 0;
  uint32_t body_len = 0;
  std::vector<TagValue> names;  // The initial names (none for the journal tail's creates).
  std::vector<TagValue> extra;  // Added by tag ops and batches.
};

struct ClientModel {
  std::deque<Obj> live;  // Oldest first.
  std::vector<ObjectId> removed;
  uint64_t serial = 0;
  uint64_t user_bytes = 0;
};

class IngestSync : public Workload {
 public:
  explicit IngestSync(uint64_t seed) : seed_(seed) {}

  const std::vector<std::string>& op_names() const override { return names_; }
  int clients() const override { return kClients; }
  size_t warmup_ops() const override { return 200; }

  Status Setup() override {
    fs_.reset();
    devices_.clear();
    power_ = std::make_shared<PowerDomain>();
    std::vector<std::shared_ptr<hfad::BlockDevice>> devs;
    for (size_t k = 0; k < kShards; k++) {
      devices_.push_back(std::make_shared<ModelDevice>(VolumeBytes(kShardHeap, kJournal),
                                                       DeviceModel{}, power_));
      devs.push_back(devices_.back());
    }
    HFAD_ASSIGN_OR_RETURN(fs_, FileSystem::Create(devs, Options()));
    models_ = std::vector<ClientModel>(kClients);
    // Preload at RAM speed; the creates are the workload's own, each synced.
    for (auto& d : devices_) {
      d->set_charging(false);
    }
    for (int id = 0; id < kClients; id++) {
      Client c(id, Key(seed_, 0x9e10ad));
      for (size_t i = 0; i < kPreloadPerClient; i++) {
        DoCreate(c, models_[id]);
      }
      if (c.failed() != 0) {
        return Status::Internal("preload: " + c.errors().front());
      }
    }
    for (auto& d : devices_) {
      d->set_charging(true);
    }
    return Status::Ok();
  }

  void Step(Client& c) override {
    ClientModel& m = models_[c.id()];
    const uint64_t r = c.rng().Uniform(100);
    if (r < 50 || m.live.size() <= kLiveMin || journal_tail_) {
      DoCreate(c, m);
    } else if (r >= 90) {
      DoRemove(c, m);
    } else if (r < 75) {
      DoTag(c, m);
    } else {
      DoBatch(c, m);
    }
  }

  Status Verify(std::vector<std::string>* problems) override {
    return CrashReopenAndCheck(problems);
  }

  FileSystem* fs() override { return fs_.get(); }
  std::vector<ModelDevice*> devices() override {
    std::vector<ModelDevice*> out;
    for (auto& d : devices_) {
      out.push_back(d.get());
    }
    return out;
  }
  uint64_t user_bytes_acked() const override {
    uint64_t n = 0;
    for (const ClientModel& m : models_) {
      n += m.user_bytes;
    }
    return n;
  }
  uint64_t live_user_bytes() const override {
    uint64_t n = 0;
    for (const ClientModel& m : models_) {
      for (const Obj& o : m.live) {
        n += o.body_len + TagBytes(o.names) + TagBytes(o.extra);
      }
    }
    return n;
  }
  std::vector<Group> latency_groups() const override {
    return {{"ack", {kCreate, kTag, kBatch, kRemove}}};
  }

  // Cut power to every shard at one instant, once background work has settled: the
  // tag indexer drained, a final Sync, and no checkpoint in flight. The journals still
  // hold every record since each shard's last checkpoint, so the reopen replays them.
  // (A cut in the middle of background work is a crash-explorer question, not this
  // benchmark's.)
  Status QuiesceAndCutPower() {
    HFAD_RETURN_IF_ERROR(fs_->WaitForTagIndexing());
    HFAD_RETURN_IF_ERROR(fs_->Sync());
    const uint64_t deadline = NowNs() + 10'000'000'000ull;
    for (size_t k = 0; k < kShards; k++) {
      while (fs_->cluster()->shard(k)->checkpointer_state() >
             hfad::osd::Osd::CheckpointerState::kIdle) {
        if (NowNs() > deadline) {
          return Status::Busy("checkpointer did not settle before the power cut");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    power_->Cut();
    return Status::Ok();
  }

 private:
  static hfad::core::FileSystemOptions Options() {
    hfad::core::FileSystemOptions o;
    o.shard_count = kShards;
    o.lazy_tag_indexing = true;
    o.lazy_indexing_threads = 0;
    o.osd.journal_size = kJournal;
    return o;
  }

  void DoCreate(Client& c, ClientModel& m) {
    Obj o;
    const uint64_t serial = m.serial++;
    const std::string cid = std::to_string(c.id());
    if (!journal_tail_) {
      o.names = {{"USER", "c" + cid},
                 {"UDEF", "g" + std::to_string(serial % 64)},
                 {"APP", "ingest"},
                 {"UDEF", "s" + cid + "-" + std::to_string(serial)}};
    }
    o.body_len = static_cast<uint32_t>(c.rng().Range(256, 4096));
    o.body_key = Key(seed_, static_cast<uint64_t>(c.id()), serial);
    const std::string body = SeededBytes(o.body_key, o.body_len);
    c.Begin(kCreate);
    auto oid = fs_->Create(o.names);
    Status s = oid.ok() ? fs_->Write(*oid, 0, body) : oid.status();
    if (s.ok()) {
      s = fs_->Sync();
    }
    c.End();
    if (!s.ok()) {
      c.Fail("create: " + s.ToString());
      return;
    }
    o.oid = *oid;
    m.user_bytes += o.body_len + TagBytes(o.names);
    m.live.push_back(std::move(o));
  }

  void DoTag(Client& c, ClientModel& m) {
    Obj& o = m.live[c.rng().Uniform(m.live.size())];
    const bool remove = !o.extra.empty() && (o.extra.size() >= kExtraTagsMax || c.rng().OneIn(2));
    TagValue name = remove ? o.extra[c.rng().Uniform(o.extra.size())]
                           : TagValue{"UDEF", "x" + std::to_string(c.id()) + "-" +
                                                  std::to_string(m.serial++)};
    c.Begin(kTag);
    Status s = remove ? fs_->RemoveTag(o.oid, name) : fs_->AddTag(o.oid, name);
    if (s.ok()) {
      s = fs_->Sync();
    }
    c.End();
    if (!s.ok()) {
      c.Fail(std::string(remove ? "remove_tag: " : "add_tag: ") + s.ToString());
      return;
    }
    m.user_bytes += name.tag.size() + name.value.size();
    if (remove) {
      o.extra.erase(std::find_if(o.extra.begin(), o.extra.end(), [&](const TagValue& t) {
        return t.tag == name.tag && t.value == name.value;
      }));
    } else {
      o.extra.push_back(std::move(name));
    }
  }

  // A batch strips an object's oldest extra name once it has the most allowed.
  static bool RemovesExtra(const Obj& o) { return o.extra.size() >= kExtraTagsMax; }

  // Four own objects, on as many different shards as the live set allows.
  std::vector<size_t> PickBatchObjects(Client& c, const ClientModel& m) {
    std::vector<size_t> picked;
    std::vector<bool> shard_used(kShards, false);
    for (int attempt = 0; attempt < 32 && picked.size() < kBatchObjects; attempt++) {
      const size_t idx = c.rng().Uniform(m.live.size());
      const size_t shard = fs_->cluster()->ShardOf(m.live[idx].oid);
      const bool fresh = std::find(picked.begin(), picked.end(), idx) == picked.end();
      if (fresh && (!shard_used[shard] || attempt >= 16)) {
        shard_used[shard] = true;
        picked.push_back(idx);
      }
    }
    return picked;
  }

  void DoBatch(Client& c, ClientModel& m) {
    const std::vector<size_t> picked = PickBatchObjects(c, m);
    const TagValue label{"UDEF", "b" + std::to_string(c.id()) + "-" + std::to_string(m.serial++)};
    hfad::core::NamespaceBatch batch = fs_->NewBatch();
    Status s;
    for (size_t idx : picked) {
      const Obj& o = m.live[idx];
      s = RemovesExtra(o) ? batch.RemoveTag(o.oid, o.extra.front()) : batch.AddTag(o.oid, label);
      if (!s.ok()) {
        c.Fail("batch stage: " + s.ToString());
        return;
      }
    }
    c.Begin(kBatch);
    s = batch.Commit();
    if (s.ok()) {
      s = fs_->Sync();
    }
    c.End();
    if (!s.ok()) {
      c.Fail("batch: " + s.ToString());
      return;
    }
    for (size_t idx : picked) {
      Obj& o = m.live[idx];
      if (RemovesExtra(o)) {
        m.user_bytes += TagBytes({o.extra.front()});
        o.extra.erase(o.extra.begin());
      } else {
        m.user_bytes += TagBytes({label});
        o.extra.push_back(label);
      }
    }
  }

  void DoRemove(Client& c, ClientModel& m) {
    const size_t count = m.live.size() > kPreloadPerClient ? m.live.size() - kPreloadPerClient : 1;
    size_t removed = 0;
    c.Begin(kRemove);
    Status s;
    for (; removed < count && s.ok(); removed++) {
      s = fs_->Remove(m.live[removed].oid);
    }
    if (s.ok()) {
      s = fs_->Sync();
    }
    c.End();
    if (!s.ok()) {
      c.Fail("remove: " + s.ToString());
      return;
    }
    for (size_t i = 0; i < removed; i++) {
      m.removed.push_back(m.live.front().oid);
      m.live.pop_front();
    }
  }

  // Checkpoint, then give every client a tail of acknowledged creates that live only in
  // the journals (run from this thread; nothing here is measured).
  Status RunJournalTail(std::vector<std::string>* problems) {
    HFAD_RETURN_IF_ERROR(fs_->WaitForTagIndexing());
    HFAD_RETURN_IF_ERROR(fs_->Checkpoint());
    journal_tail_ = true;
    for (int id = 0; id < kClients; id++) {
      Client c(id, Key(seed_, 0x7a11));
      for (size_t i = 0; i < kTailOpsPerClient; i++) {
        Step(c);
      }
      problems->insert(problems->end(), c.errors().begin(), c.errors().end());
    }
    journal_tail_ = false;
    return Status::Ok();
  }

  Status CrashReopenAndCheck(std::vector<std::string>* problems) {
    HFAD_RETURN_IF_ERROR(RunJournalTail(problems));
    HFAD_RETURN_IF_ERROR(QuiesceAndCutPower());
    std::vector<std::string> images;
    for (auto& d : devices_) {
      images.push_back(d->DurableImage());
    }
    fs_.reset();  // Its closing checkpoint reaches only the live images.
    devices_.clear();
    std::vector<std::shared_ptr<hfad::BlockDevice>> devs;
    for (std::string& image : images) {
      devices_.push_back(std::make_shared<ModelDevice>(image, DeviceModel{}));
      devices_.back()->set_charging(false);
      devs.push_back(devices_.back());
      std::string().swap(image);
    }
    HFAD_ASSIGN_OR_RETURN(fs_, FileSystem::Open(devs, Options()));
    HFAD_RETURN_IF_ERROR(fs_->WaitForTagIndexing());
    CheckModels(problems);
    HFAD_ASSIGN_OR_RETURN(hfad::core::FsckReport report, hfad::core::CheckFileSystem(fs_.get()));
    if (!report.clean()) {
      problems->push_back("fsck after reopen: " + report.ToString());
    }
    return Status::Ok();
  }

  // Compare the reopened volume with the client models.
  void CheckModels(std::vector<std::string>* problems) const {
    FileSystem* fs = fs_.get();
    for (const ClientModel& m : models_) {
      for (const Obj& o : m.live) {
        const std::string id = "object " + std::to_string(o.oid);
        auto tags = fs->Tags(o.oid);
        std::vector<TagValue> want = o.names;
        want.insert(want.end(), o.extra.begin(), o.extra.end());
        want = SortedNames(want);
        if (!tags.ok()) {
          problems->push_back(id + " lost after reopen: " + tags.status().ToString());
          continue;
        }
        const std::vector<TagValue> got = SortedNames(*tags);
        bool same = got.size() == want.size();
        for (size_t i = 0; same && i < got.size(); i++) {
          same = got[i].tag == want[i].tag && got[i].value == want[i].value;
        }
        if (!same) {
          auto list = [](const std::vector<TagValue>& names) {
            std::string out;
            for (const TagValue& t : names) {
              out += " " + t.tag + ":" + t.value;
            }
            return out;
          };
          problems->push_back(id + " has names" + list(got) + "; model has" + list(want));
        }
        std::string bytes;
        Status s = fs->Read(o.oid, 0, o.body_len + 1, &bytes);
        if (!s.ok() || bytes != SeededBytes(o.body_key, o.body_len)) {
          problems->push_back(id + " body differs after reopen");
        }
      }
      for (ObjectId oid : m.removed) {
        if (fs->cluster()->Exists(oid)) {
          problems->push_back("removed object " + std::to_string(oid) + " back after reopen");
        }
      }
    }
  }

  const uint64_t seed_;
  const std::vector<std::string> names_ = {"create", "tag", "batch", "remove"};
  bool journal_tail_ = false;  // Only unnamed creates (see the file comment).
  std::shared_ptr<PowerDomain> power_;
  std::vector<std::shared_ptr<ModelDevice>> devices_;
  std::unique_ptr<FileSystem> fs_;
  std::vector<ClientModel> models_;
};

}  // namespace

std::unique_ptr<Workload> MakeIngestSync(uint64_t seed) {
  return std::make_unique<IngestSync>(seed);
}

hfad::Status CutIngestPower(Workload* ingest) {
  HFAD_RETURN_IF_ERROR(ingest->fs()->Checkpoint());
  return static_cast<IngestSync*>(ingest)->QuiesceAndCutPower();
}

}  // namespace perfbench
