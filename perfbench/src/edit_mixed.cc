// edit_mixed: byte edits, reads, retags and strict queries on one shard.
//
// Two clients each own 64 objects of 16-128 KiB (a working set at most half the
// default 4096-page cache) tagged with one of 32 shared album tags. Lazy tag indexing
// is on and every Find is strict, so readers wait for the background indexer. Closed
// loop: 30% middle Insert of 1-4 KiB; 20% two-offset Truncate of 1.5-6 KiB, which
// removes on average what the inserts add, so object sizes stay level; 20% 4 KiB Read
// at a random offset; 15% retag to another album; 15% strict page-64 Find on an album.
// Every 32nd op of a client is a Sync instead.
//
// Oracles: each client keeps a byte-exact copy of its objects and compares every Read;
// a Find page must hold exactly those of the client's own objects that carry the album
// (within the page's oid range) and nothing that is not an object. At run end every
// object is compared whole, every album tag checked, and fsck must be clean.
#include <algorithm>
#include <unordered_set>

#include "perfbench/src/gen.h"
#include "perfbench/src/harness.h"
#include "perfbench/src/workloads.h"
#include "src/core/fsck.h"

namespace perfbench {
namespace {

using hfad::Status;
using hfad::core::FileSystem;

constexpr int kClients = 2;
constexpr size_t kObjectsPerClient = 64;
constexpr uint64_t kMinObject = 16 * kKiB;
constexpr uint64_t kMaxObject = 128 * kKiB;
constexpr size_t kAlbums = 32;
constexpr uint64_t kHeap = 128 * kMiB;
constexpr uint64_t kJournal = 8 * kMiB;
constexpr size_t kPageLimit = 64;
constexpr uint64_t kSyncEvery = 32;

enum Kind : uint32_t { kInsert = 0, kTruncate, kRead, kRetag, kFind, kSync };

struct Obj {
  ObjectId oid = 0;
  std::string bytes;
  size_t album = 0;
};

struct ClientModel {
  std::vector<Obj> objects;
  uint64_t ops = 0;
  uint64_t user_bytes = 0;
};

std::string Album(size_t a) { return "alb" + std::to_string(a); }

std::vector<TagValue> Names(size_t client, size_t album) {
  return {{"USER", "c" + std::to_string(client)}, {"UDEF", Album(album)}};
}

class EditMixed : public Workload {
 public:
  explicit EditMixed(uint64_t seed) : seed_(seed) {}

  const std::vector<std::string>& op_names() const override { return names_; }
  int clients() const override { return kClients; }
  size_t warmup_ops() const override { return 500; }

  Status Setup() override {
    fs_.reset();
    device_ = std::make_shared<ModelDevice>(VolumeBytes(kHeap, kJournal), DeviceModel{});
    hfad::core::FileSystemOptions o;
    o.lazy_indexing_threads = 0;
    o.lazy_tag_indexing = true;
    o.osd.journal_size = kJournal;
    HFAD_ASSIGN_OR_RETURN(fs_, FileSystem::Create(device_, o));
    models_ = std::vector<ClientModel>(kClients);
    all_oids_.clear();
    hfad::Random rng(Key(seed_, 0xed17));
    for (int c = 0; c < kClients; c++) {
      for (size_t i = 0; i < kObjectsPerClient; i++) {
        Obj obj;
        obj.album = rng.Uniform(kAlbums);
        obj.bytes = SeededBytes(rng.Next(), rng.Range(kMinObject, kMaxObject));
        const std::vector<TagValue> names = Names(c, obj.album);
        HFAD_ASSIGN_OR_RETURN(obj.oid, fs_->Create(names));
        HFAD_RETURN_IF_ERROR(fs_->Write(obj.oid, 0, obj.bytes));
        models_[c].user_bytes += obj.bytes.size() + TagBytes(names);
        all_oids_.insert(obj.oid);
        models_[c].objects.push_back(std::move(obj));
      }
    }
    return fs_->Sync();
  }

  void Step(Client& c) override {
    ClientModel& m = models_[c.id()];
    if (++m.ops % kSyncEvery == 0) {
      c.Begin(kSync);
      Status s = fs_->Sync();
      c.End();
      if (!s.ok()) {
        c.Fail("sync: " + s.ToString());
      }
      return;
    }
    Obj& o = m.objects[c.rng().Uniform(m.objects.size())];
    const uint64_t r = c.rng().Uniform(100);
    if (r < 30) {
      DoInsert(c, m, o);
    } else if (r < 50) {
      DoTruncate(c, o);
    } else if (r < 70) {
      DoRead(c, o);
    } else if (r < 85) {
      DoRetag(c, m, o);
    } else {
      DoFind(c, m);
    }
  }

  Status Verify(std::vector<std::string>* problems) override {
    HFAD_RETURN_IF_ERROR(fs_->WaitForTagIndexing());
    for (const ClientModel& m : models_) {
      for (const Obj& o : m.objects) {
        const std::string id = "object " + std::to_string(o.oid);
        std::string bytes;
        Status s = fs_->Read(o.oid, 0, o.bytes.size() + 1, &bytes);
        const std::string diff = s.ok() ? CompareBytes(o.bytes, bytes) : s.ToString();
        if (!diff.empty()) {
          problems->push_back(id + ": " + diff);
        }
        if (!fs_->HasName(o.oid, {"UDEF", Album(o.album)})) {
          problems->push_back(id + " lost its album tag");
        }
      }
    }
    HFAD_ASSIGN_OR_RETURN(hfad::core::FsckReport report, hfad::core::CheckFileSystem(fs_.get()));
    if (!report.clean()) {
      problems->push_back("fsck: " + report.ToString());
    }
    return Status::Ok();
  }

  FileSystem* fs() override { return fs_.get(); }
  std::vector<ModelDevice*> devices() override { return {device_.get()}; }
  uint64_t user_bytes_acked() const override {
    uint64_t n = 0;
    for (const ClientModel& m : models_) {
      n += m.user_bytes;
    }
    return n;
  }
  uint64_t live_user_bytes() const override {
    uint64_t n = 0;
    for (size_t c = 0; c < models_.size(); c++) {
      for (const Obj& o : models_[c].objects) {
        n += o.bytes.size() + TagBytes(Names(c, o.album));
      }
    }
    return n;
  }
  std::vector<Group> latency_groups() const override {
    return {{"edit", {kInsert, kTruncate}}, {"read", {kRead}}, {"find", {kFind}}};
  }

 private:
  void DoInsert(Client& c, ClientModel& m, Obj& o) {
    const uint64_t size = o.bytes.size();
    const uint64_t offset = c.rng().Range(size / 4, 3 * size / 4);
    const std::string data = SeededBytes(c.rng().Next(), c.rng().Range(1 * kKiB, 4 * kKiB));
    c.Begin(kInsert);
    Status s = fs_->Insert(o.oid, offset, data);
    c.End();
    CountEdit(c);
    if (!s.ok()) {
      c.Fail("insert: " + s.ToString());
      return;
    }
    o.bytes.insert(offset, data);
    m.user_bytes += data.size();
  }

  void DoTruncate(Client& c, Obj& o) {
    const uint64_t size = o.bytes.size();
    const uint64_t length =
        std::min(c.rng().Range(3 * kKiB / 2, 6 * kKiB), size - std::min(size, kMinObject));
    if (length == 0) {
      return DoRead(c, o);
    }
    const uint64_t offset = c.rng().Uniform(size - length + 1);
    c.Begin(kTruncate);
    Status s = fs_->Truncate(o.oid, offset, length);
    c.End();
    CountEdit(c);
    if (!s.ok()) {
      c.Fail("truncate: " + s.ToString());
      return;
    }
    o.bytes.erase(offset, length);
  }

  void DoRead(Client& c, const Obj& o) {
    const uint64_t offset = c.rng().Uniform(o.bytes.size() - 4 * kKiB + 1);
    std::string out;
    c.Begin(kRead);
    Status s = fs_->Read(o.oid, offset, 4 * kKiB, &out);
    c.End();
    if (!s.ok()) {
      c.Fail("read: " + s.ToString());
      return;
    }
    const std::string diff = CompareBytes(o.bytes.substr(offset, 4 * kKiB), out);
    if (!diff.empty()) {
      c.Mismatch("read " + std::to_string(o.oid) + "@" + std::to_string(offset) + ": " + diff);
    }
  }

  void DoRetag(Client& c, ClientModel& m, Obj& o) {
    const size_t album = (o.album + 1 + c.rng().Uniform(kAlbums - 1)) % kAlbums;
    const TagValue from{"UDEF", Album(o.album)};
    const TagValue to{"UDEF", Album(album)};
    c.Begin(kRetag);
    Status s = fs_->RemoveTag(o.oid, from);
    if (s.ok()) {
      s = fs_->AddTag(o.oid, to);
    }
    c.End();
    if (!s.ok()) {
      c.Fail("retag: " + s.ToString());
      return;
    }
    o.album = album;
    m.user_bytes += TagBytes({from, to});
  }

  void DoFind(Client& c, const ClientModel& m) {
    const size_t album = c.rng().Uniform(kAlbums);
    hfad::query::FindOptions options;
    options.limit = kPageLimit;
    options.visibility = hfad::query::Visibility::kStrict;
    hfad::query::PlanStats stats;
    options.stats = &stats;
    const auto expr = hfad::query::Expr::Term("UDEF", Album(album));
    c.Begin(kFind);
    auto page = fs_->Find(*expr, options);
    c.End();
    if (!page.ok()) {
      c.Fail("find: " + page.status().ToString());
      return;
    }
    if (c.traced()) {
      Client::TracedWork& w = c.traced_work();
      w.finds++;
      w.find_results += page->ids.size();
      w.rows_scanned += stats.rows_scanned;
      w.membership_probes += stats.membership_probes;
      w.index_lookups += stats.index_lookups;
    }
    // The other client retags concurrently, so only this client's objects have a known
    // membership: exactly those carrying the album, up to the page's last id.
    const ObjectId last = page->has_more ? page->ids.back() : UINT64_MAX;
    for (const Obj& o : m.objects) {
      const bool want = o.album == album && o.oid <= last;
      const bool got = std::binary_search(page->ids.begin(), page->ids.end(), o.oid);
      if (want != got) {
        c.Mismatch("strict find " + Album(album) + (want ? " misses " : " has ") +
                   std::to_string(o.oid));
        return;
      }
    }
    for (ObjectId oid : page->ids) {
      if (all_oids_.count(oid) == 0) {
        c.Mismatch("strict find " + Album(album) + " returned non-object " + std::to_string(oid));
        return;
      }
    }
  }

  static void CountEdit(Client& c) {
    if (c.traced()) {
      c.traced_work().edits++;
    }
  }

  const uint64_t seed_;
  const std::vector<std::string> names_ = {"insert", "truncate", "read", "retag", "find", "sync"};
  std::shared_ptr<ModelDevice> device_;
  std::unique_ptr<FileSystem> fs_;
  std::vector<ClientModel> models_;
  std::unordered_set<ObjectId> all_oids_;  // Fixed after Setup; read concurrently.
};

}  // namespace

std::unique_ptr<Workload> MakeEditMixed(uint64_t seed) { return std::make_unique<EditMixed>(seed); }

}  // namespace perfbench
