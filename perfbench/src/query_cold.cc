// query_cold: read-only naming and search over a volume far larger than the cache.
//
// One shard with inline indexing, preloaded with objects that each carry five names
// (uniform USER, two Zipf UDEF albums, one of four skewed APP values, a UDEF date for
// prefix queries) and about 1 KiB of Zipf-vocabulary text, full-text indexed. The
// pager is cut to 1024 pages (4 MiB) and the volume is checked to be at least 8x that.
// Four clients, closed loop: 40% page-64 Find over 2-3 term plans spanning
// selectivity, 20% 2-term SearchText top-10, 40% 4 KiB Read of a hit from an earlier
// page.
//
// Oracles: Find pages equal the page computed from the generator's exact membership
// sets; every SearchText hit contains both terms (and a short list holds the document
// the terms were drawn from); Read bytes equal the seeded text.
#include <algorithm>
#include <cstdio>
#include <functional>

#include "perfbench/src/gen.h"
#include "perfbench/src/harness.h"
#include "perfbench/src/workloads.h"

namespace perfbench {
namespace {

using hfad::Status;
using hfad::core::FileSystem;
using hfad::query::Expr;

constexpr int kClients = 4;
constexpr size_t kPagerPages = 1024;
constexpr size_t kPreloadPagerPages = 16384;
constexpr uint64_t kHeapPerObject = 24 * kKiB;  // About 15 KiB measured.
constexpr uint64_t kJournal = 16 * kMiB;
constexpr size_t kFootprintOverCache = 8;
constexpr size_t kPageLimit = 64;
constexpr size_t kSearchLimit = 10;

constexpr size_t kUsers = 16;
constexpr size_t kAlbums = 2048;
constexpr size_t kHeadAlbums = 8;   // "big" albums.
constexpr size_t kRareAlbumsFrom = 256;
constexpr size_t kApps = 4;
constexpr uint64_t kAppPercent[kApps] = {50, 25, 15, 10};  // app0 is "huge".
constexpr size_t kMonths = 12;
constexpr size_t kDaysPerMonth = 30;
constexpr size_t kVocabulary = 8192;
constexpr size_t kTextBytes = 1000;
constexpr size_t kSearchRareFrom = 32;

enum Kind : uint32_t { kFind = 0, kSearch, kRead };

std::string Word(size_t rank) {
  std::string w = "q";
  for (size_t v = rank + 26 * 26; v > 0; v /= 26) {
    w.push_back(static_cast<char>('a' + v % 26));
  }
  return w;
}

std::string AlbumValue(size_t a) { return "a" + std::to_string(a); }
std::string UserValue(size_t u) { return "u" + std::to_string(u); }
std::string AppValue(size_t a) { return "app" + std::to_string(a); }
std::string MonthPrefix(size_t m) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "d2009-%02zu-", m + 1);
  return buf;
}
std::string DateValue(size_t day) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%s%02zu", MonthPrefix(day / kDaysPerMonth).c_str(),
                day % kDaysPerMonth + 1);
  return buf;
}

class QueryCold : public Workload {
 public:
  QueryCold(uint64_t seed, size_t objects)
      : seed_(seed), objects_(objects), vocabulary_(kVocabulary, 1.0), albums_(kAlbums, 1.0) {}

  const std::vector<std::string>& op_names() const override { return names_; }
  int clients() const override { return kClients; }
  size_t warmup_ops() const override { return 1500; }

  Status Setup() override {
    fs_.reset();
    uint64_t heap = 4 * kMiB;
    while (heap < objects_ * kHeapPerObject) {
      heap *= 2;
    }
    device_ = std::make_shared<ModelDevice>(VolumeBytes(heap, kJournal), DeviceModel{});
    // Bulk load at RAM speed through a large cache, then reopen cold with the cut one.
    hfad::core::FileSystemOptions o;
    o.lazy_indexing_threads = 0;
    o.osd.pager_capacity_pages = kPreloadPagerPages;
    o.osd.journal_size = kJournal;
    device_->set_charging(false);
    HFAD_ASSIGN_OR_RETURN(fs_, FileSystem::Create(device_, o));
    HFAD_RETURN_IF_ERROR(Preload());
    fs_.reset();
    o.osd.pager_capacity_pages = kPagerPages;
    device_->set_charging(true);
    HFAD_ASSIGN_OR_RETURN(fs_, FileSystem::Open(device_, o));
    const uint64_t cache_bytes = kPagerPages * 4 * kKiB;
    if (fs_->volume()->heap_allocated_bytes() < kFootprintOverCache * cache_bytes) {
      return Status::Internal("query_cold volume smaller than 8x the cache");
    }
    recent_.assign(kClients, {});
    return Status::Ok();
  }

  void Step(Client& c) override {
    const uint64_t r = c.rng().Uniform(100);
    if (r < 40) {
      DoFind(c);
    } else if (r < 60) {
      DoSearch(c);
    } else {
      DoRead(c);
    }
  }

  Status Verify(std::vector<std::string>*) override { return Status::Ok(); }

  FileSystem* fs() override { return fs_.get(); }
  std::vector<ModelDevice*> devices() override { return {device_.get()}; }
  uint64_t user_bytes_acked() const override { return user_bytes_; }
  uint64_t live_user_bytes() const override { return user_bytes_; }
  std::vector<Group> latency_groups() const override {
    return {{"find", {kFind}}, {"search", {kSearch}}, {"read", {kRead}}};
  }

 private:
  // The text of object i as vocabulary ranks; Text() renders them.
  std::vector<size_t> Ranks(size_t i) const {
    hfad::Random rng(Key(seed_, 0x7e47, i));
    std::vector<size_t> ranks;
    size_t bytes = 0;
    while (bytes < kTextBytes) {
      ranks.push_back(vocabulary_.Sample(rng));
      bytes += Word(ranks.back()).size() + 1;
    }
    return ranks;
  }
  static std::string Text(const std::vector<size_t>& ranks) {
    std::string text;
    for (size_t r : ranks) {
      text += Word(r);
      text.push_back(' ');
    }
    return text;
  }

  Status Preload() {
    hfad::Random rng(Key(seed_, 0x9e10ad));
    oids_.clear();
    user_.assign(objects_, 0);
    album1_.assign(objects_, 0);
    album2_.assign(objects_, 0);
    app_.assign(objects_, 0);
    day_.assign(objects_, 0);
    by_user_.assign(kUsers, {});
    by_album_.assign(kAlbums, {});
    by_app_.assign(kApps, {});
    by_month_.assign(kMonths, {});
    user_bytes_ = 0;
    for (size_t i = 0; i < objects_; i++) {
      user_[i] = static_cast<uint16_t>(rng.Uniform(kUsers));
      album1_[i] = static_cast<uint16_t>(albums_.Sample(rng));
      do {
        album2_[i] = static_cast<uint16_t>(albums_.Sample(rng));
      } while (album2_[i] == album1_[i]);
      uint64_t p = rng.Uniform(100);
      size_t app = 0;
      while (p >= kAppPercent[app]) {
        p -= kAppPercent[app++];
      }
      app_[i] = static_cast<uint8_t>(app);
      day_[i] = static_cast<uint16_t>(rng.Uniform(kMonths * kDaysPerMonth));
      const std::vector<TagValue> names = {{"USER", UserValue(user_[i])},
                                           {"UDEF", AlbumValue(album1_[i])},
                                           {"UDEF", AlbumValue(album2_[i])},
                                           {"APP", AppValue(app_[i])},
                                           {"UDEF", DateValue(day_[i])}};
      const std::string text = Text(Ranks(i));
      HFAD_ASSIGN_OR_RETURN(ObjectId oid, fs_->Create(names));
      HFAD_RETURN_IF_ERROR(fs_->Write(oid, 0, text));
      HFAD_RETURN_IF_ERROR(fs_->IndexContent(oid));
      if (!oids_.empty() && oid <= oids_.back()) {
        return Status::Internal("object ids not ascending during preload");
      }
      oids_.push_back(oid);
      by_user_[user_[i]].push_back(oid);
      by_album_[album1_[i]].push_back(oid);
      by_album_[album2_[i]].push_back(oid);
      by_app_[app_[i]].push_back(oid);
      by_month_[day_[i] / kDaysPerMonth].push_back(oid);
      user_bytes_ += text.size() + TagBytes(names);
    }
    for (auto& list : by_album_) {
      std::sort(list.begin(), list.end());
    }
    HFAD_RETURN_IF_ERROR(fs_->Sync());
    return fs_->Checkpoint();
  }

  size_t IndexOf(ObjectId oid) const {
    return static_cast<size_t>(std::lower_bound(oids_.begin(), oids_.end(), oid) - oids_.begin());
  }
  bool HasAlbum(size_t i, size_t a) const { return album1_[i] == a || album2_[i] == a; }

  void DoFind(Client& c) {
    hfad::Random& rng = c.rng();
    std::vector<std::unique_ptr<Expr>> terms;
    const std::vector<ObjectId>* candidates = nullptr;
    std::function<bool(size_t)> match;
    auto smaller = [](const std::vector<ObjectId>& a, const std::vector<ObjectId>& b) {
      return a.size() <= b.size() ? &a : &b;
    };
    switch (rng.Uniform(4)) {
      case 0: {  // rare AND huge
        const size_t a = kRareAlbumsFrom + rng.Uniform(kAlbums - kRareAlbumsFrom);
        terms.push_back(Expr::Term("UDEF", AlbumValue(a)));
        terms.push_back(Expr::Term("APP", AppValue(0)));
        candidates = &by_album_[a];
        match = [this, a](size_t i) { return HasAlbum(i, a) && app_[i] == 0; };
        break;
      }
      case 1: {  // mid AND big [AND app]
        const size_t u = rng.Uniform(kUsers);
        const size_t a = rng.Uniform(kHeadAlbums);
        const size_t app = rng.OneIn(2) ? 1 + rng.Uniform(kApps - 1) : kApps;
        terms.push_back(Expr::Term("USER", UserValue(u)));
        terms.push_back(Expr::Term("UDEF", AlbumValue(a)));
        if (app < kApps) {
          terms.push_back(Expr::Term("APP", AppValue(app)));
        }
        candidates = smaller(by_user_[u], by_album_[a]);
        match = [this, u, a, app](size_t i) {
          return user_[i] == u && HasAlbum(i, a) && (app == kApps || app_[i] == app);
        };
        break;
      }
      case 2: {  // huge AND NOT big
        const size_t a = rng.Uniform(kHeadAlbums / 2);
        terms.push_back(Expr::Term("APP", AppValue(0)));
        terms.push_back(Expr::Not(Expr::Term("UDEF", AlbumValue(a))));
        candidates = &by_app_[0];
        match = [this, a](size_t i) { return app_[i] == 0 && !HasAlbum(i, a); };
        break;
      }
      default: {  // tag:value* AND mid
        const size_t m = rng.Uniform(kMonths);
        const size_t u = rng.Uniform(kUsers);
        terms.push_back(Expr::Prefix("UDEF", MonthPrefix(m)));
        terms.push_back(Expr::Term("USER", UserValue(u)));
        candidates = smaller(by_month_[m], by_user_[u]);
        match = [this, m, u](size_t i) {
          return day_[i] / kDaysPerMonth == m && user_[i] == u;
        };
        break;
      }
    }
    const std::unique_ptr<Expr> expr = Expr::And(std::move(terms));
    hfad::query::FindOptions options;
    options.limit = kPageLimit;
    options.after = rng.OneIn(2) ? 0 : oids_[rng.Uniform(oids_.size())];
    hfad::query::PlanStats stats;
    options.stats = &stats;
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
    const hfad::query::FindPage want =
        ExpectedPage(*candidates, options.after, kPageLimit,
                     [&](ObjectId oid) { return match(IndexOf(oid)); });
    const std::string diff = ComparePages(want, *page);
    if (!diff.empty()) {
      c.Mismatch("find " + hfad::query::ToString(*expr) + ": " + diff);
      return;
    }
    if (!page->ids.empty()) {
      recent_[c.id()] = page->ids;
    }
  }

  void DoSearch(Client& c) {
    const size_t i = c.rng().Uniform(oids_.size());
    const std::vector<size_t> ranks = Ranks(i);
    const size_t rare = *std::max_element(ranks.begin(), ranks.end());
    std::vector<size_t> others;
    for (size_t r : ranks) {
      if (r != rare && r >= kSearchRareFrom) {
        others.push_back(r);
      }
    }
    if (others.empty()) {
      for (size_t r : ranks) {
        if (r != rare) {
          others.push_back(r);
        }
      }
    }
    if (others.empty()) {  // A text of one repeated word has no second term.
      return DoRead(c);
    }
    const size_t other = others[c.rng().Uniform(others.size())];
    c.Begin(kSearch);
    auto hits = fs_->SearchText({Word(rare), Word(other)}, kSearchLimit);
    c.End();
    if (!hits.ok()) {
      c.Fail("search: " + hits.status().ToString());
      return;
    }
    bool has_source = false;
    std::vector<ObjectId> seen;
    for (const auto& hit : *hits) {
      const size_t j = IndexOf(hit.docid);
      if (j >= oids_.size() || oids_[j] != hit.docid) {
        c.Mismatch("search hit " + std::to_string(hit.docid) + " is no object");
        return;
      }
      const std::vector<size_t> doc = Ranks(j);
      if (std::find(doc.begin(), doc.end(), rare) == doc.end() ||
          std::find(doc.begin(), doc.end(), other) == doc.end()) {
        c.Mismatch("search hit " + std::to_string(hit.docid) + " lacks a term");
        return;
      }
      if (std::find(seen.begin(), seen.end(), hit.docid) != seen.end()) {
        c.Mismatch("search hit " + std::to_string(hit.docid) + " repeated");
        return;
      }
      seen.push_back(hit.docid);
      has_source = has_source || j == i;
    }
    if (hits->size() > kSearchLimit || hits->empty() ||
        (hits->size() < kSearchLimit && !has_source)) {
      c.Mismatch("search for object " + std::to_string(oids_[i]) + " returned " +
                 std::to_string(hits->size()) + " hits without it");
    }
  }

  void DoRead(Client& c) {
    const std::vector<ObjectId>& recent = recent_[c.id()];
    const ObjectId oid = recent.empty() ? oids_[c.rng().Uniform(oids_.size())]
                                        : recent[c.rng().Uniform(recent.size())];
    std::string out;
    c.Begin(kRead);
    Status s = fs_->Read(oid, 0, 4 * kKiB, &out);
    c.End();
    if (!s.ok()) {
      c.Fail("read: " + s.ToString());
      return;
    }
    const std::string diff = CompareBytes(Text(Ranks(IndexOf(oid))), out);
    if (!diff.empty()) {
      c.Mismatch("read " + std::to_string(oid) + ": " + diff);
    }
  }

  const uint64_t seed_;
  const size_t objects_;
  const std::vector<std::string> names_ = {"find", "search", "read"};
  const Zipf vocabulary_;
  const Zipf albums_;
  std::shared_ptr<ModelDevice> device_;
  std::unique_ptr<FileSystem> fs_;

  // The generator's exact model: per-object attributes (by preload index, in oid
  // order) and per-value membership lists (ascending oids).
  std::vector<ObjectId> oids_;
  std::vector<uint16_t> user_, album1_, album2_, day_;
  std::vector<uint8_t> app_;
  std::vector<std::vector<ObjectId>> by_user_, by_album_, by_app_, by_month_;
  uint64_t user_bytes_ = 0;
  std::vector<std::vector<ObjectId>> recent_;  // Per client: its last non-empty page.
};

}  // namespace

std::unique_ptr<Workload> MakeQueryCold(uint64_t seed, size_t objects) {
  return std::make_unique<QueryCold>(seed, objects);
}

}  // namespace perfbench
