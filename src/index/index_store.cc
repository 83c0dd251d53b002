#include "src/index/index_store.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/common/coding.h"

namespace hfad {
namespace index {

namespace {

std::string OidBytes(ObjectId oid) {
  std::string key(8, '\0');
  for (int i = 7; i >= 0; i--) {
    key[i] = static_cast<char>(oid & 0xff);
    oid >>= 8;
  }
  return key;
}

ObjectId OidFromBytes(Slice b) {
  ObjectId v = 0;
  for (size_t i = 0; i < 8 && i < b.size(); i++) {
    v = (v << 8) | static_cast<uint8_t>(b[i]);
  }
  return v;
}

// Entry key: value '\0' oid. The NUL separator keeps "a" and "ab" prefix-disjoint for
// values that do not themselves contain NUL; values with embedded NUL still work for
// exact lookups because the oid suffix has fixed length.
std::string EntryKey(Slice value, ObjectId oid) {
  std::string key = value.ToString();
  key.push_back('\0');
  key += OidBytes(oid);
  return key;
}

std::string ValuePrefix(Slice value) {
  std::string p = value.ToString();
  p.push_back('\0');
  return p;
}

// Smallest key strictly greater than every key starting with `prefix` ("" = open end,
// for an all-0xff prefix).
std::string PrefixEnd(Slice prefix) {
  std::string end = prefix.ToString();
  while (!end.empty()) {
    if (static_cast<uint8_t>(end.back()) != 0xff) {
      end.back() = static_cast<char>(static_cast<uint8_t>(end.back()) + 1);
      return end;
    }
    end.pop_back();
  }
  return end;
}

}  // namespace

std::vector<ObjectId> IntersectSorted(const std::vector<ObjectId>& a,
                                      const std::vector<ObjectId>& b) {
  std::vector<ObjectId> out;
  out.reserve(std::min(a.size(), b.size()));
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out;
}

// ---------------------------------------------------------------- IndexStore defaults

Result<std::unique_ptr<PostingIterator>> IndexStore::OpenPostings(Slice value,
                                                                  PlanStats* stats) const {
  // Plug-in stores fall back to materializing through their own Lookup; the standard
  // stores override with streaming implementations.
  std::string v = value.ToString();
  return std::unique_ptr<PostingIterator>(std::make_unique<LazyPostingIterator>(
      [this, v]() -> Result<std::vector<ObjectId>> { return Lookup(v); }, stats));
}

Result<std::unique_ptr<PostingIterator>> IndexStore::OpenPrefixPostings(
    Slice prefix, PlanStats* stats) const {
  // Materializing fallback for plug-in stores (one ScanValues pass + sort at first use).
  return MakePrefixIterator(this, prefix.ToString(), stats);
}

Status IndexStore::ApplyBatch(const std::vector<std::pair<std::string, ObjectId>>& adds,
                              const std::vector<std::pair<std::string, ObjectId>>& removes) {
  for (const auto& [value, oid] : adds) {
    HFAD_RETURN_IF_ERROR(Add(value, oid));
  }
  for (const auto& [value, oid] : removes) {
    Status s = Remove(value, oid);
    if (!s.ok() && !s.IsNotFound()) {
      return s;
    }
  }
  return Status::Ok();
}

// ---------------------------------------------------------------- KeyValueIndexStore

KeyValueIndexStore::KeyValueIndexStore(osd::Osd* volume, std::string tag, uint64_t root)
    : volume_(volume),
      tag_(std::move(tag)),
      root_name_("index/" + tag_),
      tree_(std::make_unique<btree::BTree>(volume->pager(), volume->allocator(), root)),
      last_root_(root) {}

Result<std::unique_ptr<KeyValueIndexStore>> KeyValueIndexStore::Mount(osd::Osd* volume,
                                                                      std::string tag) {
  HFAD_ASSIGN_OR_RETURN(uint64_t root, volume->GetNamedRoot("index/" + tag));
  std::unique_ptr<KeyValueIndexStore> store(
      new KeyValueIndexStore(volume, std::move(tag), root));
  // Report the tree's height to the volume before any journal credit is sized for it
  // (an unreadable page surfaces on the first real access instead).
  (void)store->tree_->Height();
  return store;
}

Status KeyValueIndexStore::SyncRoot() {
  uint64_t root = tree_->root();
  if (root != last_root_) {
    HFAD_RETURN_IF_ERROR(volume_->SetNamedRoot(root_name_, root));
    last_root_ = root;
  }
  return Status::Ok();
}

Status KeyValueIndexStore::Add(Slice value, ObjectId oid) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  bool inserted = false;
  HFAD_RETURN_IF_ERROR(tree_->Put(EntryKey(value, oid), Slice(), &inserted));
  if (inserted) {
    // Keep warm cardinality estimates exact; values never estimated stay uncached.
    card_cache_.MutateIfPresent(value.ToString(), [](uint64_t& n) { n++; });
    postings_cache_.Erase(value.ToString());
  }
  return SyncRoot();
}

Status KeyValueIndexStore::Remove(Slice value, ObjectId oid) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  HFAD_RETURN_IF_ERROR(tree_->Delete(EntryKey(value, oid)));
  // A warm entry at the cap is clamped, not exact — decrementing it would drift the
  // estimate arbitrarily below the real count (and eventually invert plans), so drop
  // it and let the next estimate rescan.
  bool clamped = false;
  card_cache_.MutateIfPresent(value.ToString(), [&](uint64_t& n) {
    if (n >= kCardEstimateCap) {
      clamped = true;
    } else if (n > 0) {
      n--;
    }
  });
  if (clamped) {
    card_cache_.Erase(value.ToString());
  }
  postings_cache_.Erase(value.ToString());
  return SyncRoot();
}

Status KeyValueIndexStore::ApplyBatch(
    const std::vector<std::pair<std::string, ObjectId>>& adds,
    const std::vector<std::pair<std::string, ObjectId>>& removes) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  // Sort the ENCODED entry keys, not (value, oid) pairs: the NUL value/oid delimiter
  // makes pair order and key order disagree for values with embedded NUL.
  std::vector<std::pair<std::string, std::string>> entries;
  entries.reserve(adds.size());
  for (const auto& [value, oid] : adds) {
    entries.emplace_back(EntryKey(value, oid), std::string());
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  HFAD_RETURN_IF_ERROR(tree_->BulkLoad(entries));
  for (const auto& [value, oid] : removes) {
    Status s = tree_->Delete(EntryKey(value, oid));
    if (!s.ok() && !s.IsNotFound()) {
      return s;
    }
  }
  // Per-value increments are not recoverable from an aggregate batch (adds may have
  // been overwrites), so drop every touched value's cached cardinality and postings
  // and let the next estimate/lookup rescan.
  for (const auto& [value, oid] : adds) {
    card_cache_.Erase(value);
    postings_cache_.Erase(value);
  }
  for (const auto& [value, oid] : removes) {
    card_cache_.Erase(value);
    postings_cache_.Erase(value);
  }
  return SyncRoot();
}

Result<std::vector<ObjectId>> KeyValueIndexStore::Lookup(Slice value) const {
  std::string value_key = value.ToString();
  PostingsRef cached;
  if (postings_cache_.Get(value_key, &cached)) {
    return *cached;
  }
  auto postings = std::make_shared<std::vector<ObjectId>>();
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::string prefix = ValuePrefix(value);
  HFAD_RETURN_IF_ERROR(tree_->ScanPrefix(prefix, [&](Slice key, Slice) {
    Slice oid_bytes(key.data() + prefix.size(), key.size() - prefix.size());
    postings->push_back(OidFromBytes(oid_bytes));
    return true;
  }));
  std::vector<ObjectId> out = *postings;  // Prefix scan yields ascending oid order.
  // The fill happens while mu_ is still held shared: mutators hold mu_ exclusive when
  // they Erase this value, so they cannot interleave between our scan and our Put —
  // a cached list is always consistent with some tree state no older than the scan.
  postings_cache_.PutWithEvict(std::move(value_key), std::move(postings),
                               kPostingsCacheMaxEntries /
                                   decltype(postings_cache_)::kNumStripes);
  return out;
}

Result<bool> KeyValueIndexStore::Contains(Slice value, ObjectId oid) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return tree_->Contains(EntryKey(value, oid));
}

Result<uint64_t> KeyValueIndexStore::EstimateCardinality(Slice value) const {
  std::string key = value.ToString();
  uint64_t cached = 0;
  if (card_cache_.Get(key, &cached)) {
    return cached;
  }
  uint64_t n = 0;
  std::shared_lock<std::shared_mutex> lock(mu_);
  HFAD_RETURN_IF_ERROR(tree_->ScanPrefix(ValuePrefix(value), [&](Slice, Slice) {
    n++;
    return n < kCardEstimateCap;  // Exact up to the cap; beyond that "large" suffices.
  }));
  // Fill while mu_ is still held shared (same ordering as the postings cache): a racing
  // Add/Remove adjusts warm entries under mu_ exclusive, so it cannot slip between our
  // count and our fill and leave the cached baseline permanently stale.
  card_cache_.PutWithEvict(std::move(key), n,
                           kCardCacheMaxEntries / decltype(card_cache_)::kNumStripes);
  return n;
}

Status KeyValueIndexStore::ScanValues(
    Slice prefix, const std::function<bool(Slice value, ObjectId oid)>& fn) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return tree_->ScanPrefix(prefix, [&](Slice key, Slice) {
    // Split "value \0 oid8": the oid is the fixed-size suffix.
    if (key.size() < 9) {
      return true;  // Malformed entry; skip defensively.
    }
    Slice value(key.data(), key.size() - 9);
    Slice oid_bytes(key.data() + key.size() - 8, 8);
    return fn(value, OidFromBytes(oid_bytes));
  });
}

// Batched streaming iterator over one value's postings: each refill takes mu_ shared,
// scans at most kBatch entries from the current position, and releases the lock — so a
// paginated consumer holds no lock between pulls and never materializes the full list.
// When the very first refill (from oid 0) covers the whole posting list, it doubles as
// a Lookup and fills the postings cache while mu_ is still held shared (same ordering
// argument as Lookup's fill).
class KeyValueIndexStore::ScanIterator : public PostingIterator {
 public:
  static constexpr size_t kBatch = 1024;

  ScanIterator(const KeyValueIndexStore* store, std::string value, PlanStats* stats)
      : store_(store),
        value_(std::move(value)),
        prefix_(ValuePrefix(value_)),
        end_key_(value_ + '\x01'),  // First key after the "value \0 ..." range.
        stats_(stats) {}

  bool Valid() const override { return positioned_ && idx_ < buf_.size(); }
  ObjectId Value() const override { return buf_[idx_]; }

  Status Next() override {
    if (!Valid()) {
      return Status::Ok();
    }
    idx_++;
    if (idx_ >= buf_.size() && !exhausted_) {
      return Refill(next_start_);
    }
    return Status::Ok();
  }

  Status SeekTo(ObjectId lower_bound) override {
    if (Valid() && buf_[idx_] >= lower_bound) {
      return Status::Ok();
    }
    if (positioned_) {
      idx_ = std::lower_bound(buf_.begin() + static_cast<ptrdiff_t>(idx_), buf_.end(),
                              lower_bound) -
             buf_.begin();
      if (idx_ < buf_.size() || exhausted_) {
        return Status::Ok();
      }
    }
    positioned_ = true;
    return Refill(std::max(lower_bound, next_start_));
  }

 private:
  Status Refill(ObjectId from) {
    buf_.clear();
    idx_ = 0;
    positioned_ = true;
    bool more = false;
    std::string start = prefix_ + OidBytes(from);
    {
      std::shared_lock<std::shared_mutex> lock(store_->mu_);
      HFAD_RETURN_IF_ERROR(store_->tree_->Scan(start, end_key_, [&](Slice key, Slice) {
        if (buf_.size() == kBatch) {
          more = true;
          return false;
        }
        buf_.push_back(OidFromBytes(Slice(key.data() + key.size() - 8, 8)));
        return true;
      }));
      if (first_fetch_ && from == 0 && !more) {
        store_->postings_cache_.PutWithEvict(
            value_, std::make_shared<const std::vector<ObjectId>>(buf_),
            kPostingsCacheMaxEntries / decltype(store_->postings_cache_)::kNumStripes);
      }
    }
    if (stats_ != nullptr) {
      if (first_fetch_) {
        stats_->index_lookups++;
      }
      stats_->rows_scanned += buf_.size();
    }
    first_fetch_ = false;
    exhausted_ = !more;
    next_start_ = buf_.empty() ? from : buf_.back() + 1;
    return Status::Ok();
  }

  const KeyValueIndexStore* const store_;
  const std::string value_;
  const std::string prefix_;
  const std::string end_key_;
  PlanStats* const stats_;
  std::vector<ObjectId> buf_;
  size_t idx_ = 0;
  ObjectId next_start_ = 0;
  bool positioned_ = false;
  bool exhausted_ = false;
  bool first_fetch_ = true;
};

Result<std::unique_ptr<PostingIterator>> KeyValueIndexStore::OpenPostings(
    Slice value, PlanStats* stats) const {
  PostingsRef cached;
  if (postings_cache_.Get(value.ToString(), &cached)) {
    return std::unique_ptr<PostingIterator>(
        std::make_unique<VectorPostingIterator>(std::move(cached), stats));
  }
  return std::unique_ptr<PostingIterator>(
      std::make_unique<ScanIterator>(this, value.ToString(), stats));
}

// Streaming `prefix*` execution. First use runs a skip-seek DISCOVERY pass: one bounded
// btree scan segment at a time (store lock held per segment only). Values with only a
// few postings are absorbed as they are scanned into one sorted side buffer — a
// directory-style prefix (many values, a posting or two each) therefore costs exactly
// one range scan, no per-value descents. A value that shows a long posting run is
// instead PROMOTED to a lazy batched stream (the same ScanIterator the exact-match path
// uses) and discovery seeks straight past its remaining postings without reading them.
// Emission merges the side buffer and the streams through a min-heap keyed on each
// source's current oid, with duplicate collapse — so a page over a prefix dominated by
// huge posting lists costs O(page) batch refills, never a full materialization.
class KeyValueIndexStore::PrefixMergeIterator : public PostingIterator {
 public:
  // Postings of one value scanned (and side-buffered) before discovery promotes the
  // value to a stream and jumps over the rest.
  static constexpr int kSkipRunLength = 8;
  // Entries per discovery scan segment (lock released between segments).
  static constexpr size_t kDiscoverBatch = 1024;

  PrefixMergeIterator(const KeyValueIndexStore* store, std::string prefix,
                      PlanStats* stats)
      : store_(store), prefix_(std::move(prefix)), stats_(stats) {}

  bool Valid() const override { return valid_; }
  ObjectId Value() const override { return value_; }

  Status SeekTo(ObjectId lower_bound) override {
    if (!positioned_) {
      HFAD_RETURN_IF_ERROR(Discover());
      positioned_ = true;
      if (stats_ != nullptr) {
        stats_->index_lookups++;
      }
      for (const auto& stream : streams_) {
        HFAD_RETURN_IF_ERROR(stream->SeekTo(lower_bound));
        if (stream->Valid()) {
          heap_.push_back(stream.get());
        }
      }
      std::make_heap(heap_.begin(), heap_.end(), HeapGreater);
      Reposition();
      return Status::Ok();
    }
    if (valid_ && value_ >= lower_bound) {
      return Status::Ok();
    }
    while (!heap_.empty() && heap_.front()->Value() < lower_bound) {
      PostingIterator* stream = PopTop();
      HFAD_RETURN_IF_ERROR(stream->SeekTo(lower_bound));
      PushIfValid(stream);
    }
    Reposition();
    return Status::Ok();
  }

  Status Next() override {
    if (!valid_) {
      return Status::Ok();
    }
    // Advance every stream sitting on the current oid — that is the duplicate collapse.
    while (!heap_.empty() && heap_.front()->Value() == value_) {
      PostingIterator* stream = PopTop();
      HFAD_RETURN_IF_ERROR(stream->Next());
      PushIfValid(stream);
    }
    Reposition();
    return Status::Ok();
  }

 private:
  static bool HeapGreater(const PostingIterator* a, const PostingIterator* b) {
    return a->Value() > b->Value();  // std:: heap functions build a max-heap; invert.
  }

  PostingIterator* PopTop() {
    std::pop_heap(heap_.begin(), heap_.end(), HeapGreater);
    PostingIterator* top = heap_.back();
    heap_.pop_back();
    return top;
  }

  void PushIfValid(PostingIterator* stream) {
    if (stream->Valid()) {
      heap_.push_back(stream);
      std::push_heap(heap_.begin(), heap_.end(), HeapGreater);
    }
  }

  void Reposition() {
    valid_ = !heap_.empty();
    if (valid_) {
      value_ = heap_.front()->Value();
      if (stats_ != nullptr) {
        stats_->intermediate_rows++;
      }
    }
  }

  Status Discover() {
    std::string start = prefix_;
    const std::string end = PrefixEnd(prefix_);
    std::string cur;                 // Value currently being scanned.
    std::vector<ObjectId> cur_oids;  // Its postings seen so far (scan = ascending oid).
    bool have_cur = false;
    std::vector<ObjectId> buffered;     // Absorbed postings of small values.
    std::vector<std::string> promoted;  // Values handed to lazy streams.
    auto flush_cur = [&] {
      buffered.insert(buffered.end(), cur_oids.begin(), cur_oids.end());
      cur_oids.clear();
    };
    for (;;) {
      std::string resume;
      size_t scanned = 0;
      std::string last_key;
      {
        std::shared_lock<std::shared_mutex> lock(store_->mu_);
        HFAD_RETURN_IF_ERROR(store_->tree_->Scan(start, end, [&](Slice key, Slice) {
          scanned++;
          last_key.assign(key.data(), key.size());
          if (key.size() < 9) {
            return scanned < kDiscoverBatch;  // Malformed entry; skip defensively.
          }
          Slice value(key.data(), key.size() - 9);
          ObjectId oid = OidFromBytes(Slice(key.data() + key.size() - 8, 8));
          if (!have_cur || value != Slice(cur)) {
            flush_cur();
            cur.assign(value.data(), value.size());
            have_cur = true;
            cur_oids.push_back(oid);
            return scanned < kDiscoverBatch;
          }
          cur_oids.push_back(oid);
          if (cur_oids.size() >= kSkipRunLength) {
            // A real posting run: let a lazy stream own the whole value (dropping what
            // was buffered so far — the stream re-reads it in 1024-entry batches) and
            // seek discovery straight past its remaining postings.
            cur_oids.clear();
            promoted.push_back(cur);
            resume = cur + '\x01';
            return false;
          }
          return scanned < kDiscoverBatch;
        }));
      }
      if (!resume.empty()) {
        start = std::move(resume);  // Skip-seek past the promoted value's postings.
        have_cur = false;           // cur was promoted; never absorb it again.
        continue;
      }
      if (scanned >= kDiscoverBatch) {
        start = last_key + '\0';  // Segment boundary: resume at the key successor.
        continue;
      }
      break;  // Scan ran off the prefix range: discovery complete.
    }
    flush_cur();
    if (stats_ != nullptr) {
      stats_->rows_scanned += buffered.size();
    }
    std::sort(buffered.begin(), buffered.end());
    buffered.erase(std::unique(buffered.begin(), buffered.end()), buffered.end());
    if (!buffered.empty()) {
      // Stats already counted above, so the vector iterator gets none.
      streams_.push_back(
          std::make_unique<VectorPostingIterator>(std::move(buffered), nullptr));
    }
    for (const std::string& value : promoted) {
      streams_.push_back(std::make_unique<ScanIterator>(store_, value, stats_));
    }
    return Status::Ok();
  }

  const KeyValueIndexStore* const store_;
  const std::string prefix_;
  PlanStats* const stats_;
  std::vector<std::unique_ptr<PostingIterator>> streams_;
  std::vector<PostingIterator*> heap_;
  bool positioned_ = false;
  bool valid_ = false;
  ObjectId value_ = 0;
};

Result<std::unique_ptr<PostingIterator>> KeyValueIndexStore::OpenPrefixPostings(
    Slice prefix, PlanStats* stats) const {
  return std::unique_ptr<PostingIterator>(
      std::make_unique<PrefixMergeIterator>(this, prefix.ToString(), stats));
}

// ---------------------------------------------------------------- FullTextIndexStore

FullTextIndexStore::FullTextIndexStore(osd::Osd* volume, uint64_t root)
    : volume_(volume),
      tree_(std::make_unique<btree::BTree>(volume->pager(), volume->allocator(), root)),
      engine_(std::make_unique<fulltext::FullTextIndex>(tree_.get())),
      last_root_(root) {}

Result<std::unique_ptr<FullTextIndexStore>> FullTextIndexStore::Mount(osd::Osd* volume) {
  HFAD_ASSIGN_OR_RETURN(uint64_t root, volume->GetNamedRoot("index/FULLTEXT"));
  std::unique_ptr<FullTextIndexStore> store(new FullTextIndexStore(volume, root));
  (void)store->tree_->Height();  // As in KeyValueIndexStore::Mount.
  return store;
}

Status FullTextIndexStore::SyncRoot() {
  uint64_t root = tree_->root();
  if (root != last_root_) {
    HFAD_RETURN_IF_ERROR(volume_->SetNamedRoot("index/FULLTEXT", root));
    last_root_ = root;
  }
  return Status::Ok();
}

Status FullTextIndexStore::Add(Slice content, ObjectId oid) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  HFAD_RETURN_IF_ERROR(engine_->IndexDocument(oid, content));
  return SyncRoot();
}

Status FullTextIndexStore::Remove(Slice, ObjectId oid) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  HFAD_RETURN_IF_ERROR(engine_->RemoveDocument(oid));
  return SyncRoot();
}

Result<bool> FullTextIndexStore::HasDocument(ObjectId oid) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return engine_->HasDocument(oid);
}

Result<std::vector<ObjectId>> FullTextIndexStore::Lookup(Slice term) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return engine_->Postings(term.ToString());
}

Result<bool> FullTextIndexStore::Contains(Slice term, ObjectId oid) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return engine_->ContainsPosting(term.ToString(), oid);
}

Result<uint64_t> FullTextIndexStore::EstimateCardinality(Slice term) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return engine_->DocumentFrequency(term.ToString());
}

// Streams one term's posting range from the inverted index ("P" term '\0' oid keys) in
// batches, store lock held shared only during each refill.
class FullTextIndexStore::ScanIterator : public PostingIterator {
 public:
  static constexpr size_t kBatch = 1024;

  ScanIterator(const FullTextIndexStore* store, std::string term, PlanStats* stats)
      : store_(store), term_(std::move(term)), stats_(stats) {}

  bool Valid() const override { return positioned_ && idx_ < buf_.size(); }
  ObjectId Value() const override { return buf_[idx_]; }

  Status Next() override {
    if (!Valid()) {
      return Status::Ok();
    }
    idx_++;
    if (idx_ >= buf_.size() && !exhausted_) {
      return Refill(next_start_);
    }
    return Status::Ok();
  }

  Status SeekTo(ObjectId lower_bound) override {
    if (Valid() && buf_[idx_] >= lower_bound) {
      return Status::Ok();
    }
    if (positioned_) {
      idx_ = std::lower_bound(buf_.begin() + static_cast<ptrdiff_t>(idx_), buf_.end(),
                              lower_bound) -
             buf_.begin();
      if (idx_ < buf_.size() || exhausted_) {
        return Status::Ok();
      }
    }
    positioned_ = true;
    return Refill(std::max(lower_bound, next_start_));
  }

 private:
  Status Refill(ObjectId from) {
    buf_.clear();
    idx_ = 0;
    positioned_ = true;
    bool more = false;
    {
      std::shared_lock<std::shared_mutex> lock(store_->mu_);
      HFAD_RETURN_IF_ERROR(
          store_->engine_->ScanPostingDocs(term_, from, [&](uint64_t docid) {
            if (buf_.size() == kBatch) {
              more = true;
              return false;
            }
            buf_.push_back(docid);
            return true;
          }));
    }
    if (stats_ != nullptr) {
      if (first_fetch_) {
        stats_->index_lookups++;
      }
      stats_->rows_scanned += buf_.size();
    }
    first_fetch_ = false;
    exhausted_ = !more;
    next_start_ = buf_.empty() ? from : buf_.back() + 1;
    return Status::Ok();
  }

  const FullTextIndexStore* const store_;
  const std::string term_;  // Already normalized.
  PlanStats* const stats_;
  std::vector<ObjectId> buf_;
  size_t idx_ = 0;
  ObjectId next_start_ = 0;
  bool positioned_ = false;
  bool exhausted_ = false;
  bool first_fetch_ = true;
};

Result<std::unique_ptr<PostingIterator>> FullTextIndexStore::OpenPostings(
    Slice term, PlanStats* stats) const {
  std::string norm = fulltext::NormalizeTerm(term);
  if (norm.empty()) {
    return Status::InvalidArgument("term has no indexable characters");
  }
  return std::unique_ptr<PostingIterator>(
      std::make_unique<ScanIterator>(this, std::move(norm), stats));
}

// ---------------------------------------------------------------- IdIndexStore

Result<std::vector<ObjectId>> IdIndexStore::Lookup(Slice value) const {
  if (value.empty() || value.size() > 20) {
    return Status::InvalidArgument("ID value must be a decimal object id");
  }
  ObjectId oid = 0;
  for (size_t i = 0; i < value.size(); i++) {
    if (value[i] < '0' || value[i] > '9') {
      return Status::InvalidArgument("ID value must be a decimal object id");
    }
    oid = oid * 10 + static_cast<ObjectId>(value[i] - '0');
  }
  if (!volume_->Exists(oid)) {
    return std::vector<ObjectId>{};
  }
  return std::vector<ObjectId>{oid};
}

// ---------------------------------------------------------------- IndexCollection

Result<std::unique_ptr<IndexCollection>> IndexCollection::Mount(osd::Osd* volume) {
  std::unique_ptr<IndexCollection> c(new IndexCollection());
  for (std::string_view tag : {kTagPosix, kTagUser, kTagUdef, kTagApp}) {
    HFAD_ASSIGN_OR_RETURN(auto store, KeyValueIndexStore::Mount(volume, std::string(tag)));
    HFAD_RETURN_IF_ERROR(c->Register(std::move(store)));
  }
  HFAD_ASSIGN_OR_RETURN(auto ft, FullTextIndexStore::Mount(volume));
  HFAD_RETURN_IF_ERROR(c->Register(std::move(ft)));
  HFAD_RETURN_IF_ERROR(c->Register(std::make_unique<IdIndexStore>(volume)));
  return c;
}

Status IndexCollection::Register(std::unique_ptr<IndexStore> store) {
  std::string tag(store->tag());
  auto [it, inserted] = stores_.emplace(std::move(tag), std::move(store));
  if (!inserted) {
    return Status::AlreadyExists("index store for tag '" + it->first +
                                 "' already registered");
  }
  return Status::Ok();
}

IndexStore* IndexCollection::store(std::string_view tag) {
  auto it = stores_.find(tag);
  return it == stores_.end() ? nullptr : it->second.get();
}

const IndexStore* IndexCollection::store(std::string_view tag) const {
  auto it = stores_.find(tag);
  return it == stores_.end() ? nullptr : it->second.get();
}

std::vector<std::string> IndexCollection::tags() const {
  std::vector<std::string> out;
  out.reserve(stores_.size());
  for (const auto& [tag, store] : stores_) {
    out.push_back(tag);
  }
  return out;
}

Result<std::unique_ptr<PostingIterator>> IndexCollection::OpenLookupIterator(
    const std::vector<TagValue>& terms, PlanStats* stats) const {
  if (terms.empty()) {
    return Status::InvalidArgument("naming lookup needs at least one tag/value pair");
  }
  std::vector<Conjunct> conjuncts;
  conjuncts.reserve(terms.size());
  for (const TagValue& term : terms) {
    const IndexStore* s = store(term.tag);
    if (s == nullptr) {
      return Status::NotFound("no index store for tag '" + term.tag + "'");
    }
    Conjunct c;
    c.store = s;
    c.value = term.value;
    c.estimate = kUnknownCardinality;
    if (terms.size() > 1) {
      auto est = s->EstimateCardinality(term.value);
      if (est.ok()) {
        c.estimate = *est;
      }
    }
    conjuncts.push_back(std::move(c));
  }
  return BuildConjunction(std::move(conjuncts), /*optimize=*/true, stats);
}

Result<std::vector<ObjectId>> IndexCollection::Lookup(
    const std::vector<TagValue>& terms) const {
  HFAD_ASSIGN_OR_RETURN(auto it, OpenLookupIterator(terms));
  return DrainPostings(it.get());
}

}  // namespace index
}  // namespace hfad
