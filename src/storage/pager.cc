#include "src/storage/pager.h"

#include <algorithm>
#include <cstring>
#include <unordered_set>

#include "src/common/metrics.h"
#include "src/common/stats.h"
#include "src/common/trace.h"
#include "src/storage/checksums.h"
#include "src/storage/volume_health.h"

namespace hfad {

namespace {

// One stripe per 64 pages of capacity, at most 16: big caches get read parallelism,
// small (test-sized) caches keep strict global capacity behavior in one stripe.
size_t StripeCountFor(size_t capacity_pages) {
  return std::max<size_t>(1, std::min<size_t>(16, capacity_pages / 64));
}

}  // namespace

Pager::Pager(BlockDevice* device, size_t capacity_pages, bool no_steal)
    : device_(device),
      capacity_(capacity_pages == 0 ? 1 : capacity_pages),
      no_steal_(no_steal),
      stripe_count_(StripeCountFor(capacity_)),
      stripe_capacity_(std::max<size_t>(1, capacity_ / stripe_count_)),
      stripes_(std::make_unique<Stripe[]>(stripe_count_)) {}

std::shared_lock<std::shared_mutex> Pager::LockStripeShared(const Stripe& s) const {
  std::shared_lock<std::shared_mutex> lock(s.mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    s.contentions.fetch_add(1, std::memory_order_relaxed);
    stats::Add(stats::Counter::kLockContentions);
    lock.lock();
  }
  s.acquisitions.fetch_add(1, std::memory_order_relaxed);
  return lock;
}

std::unique_lock<std::shared_mutex> Pager::LockStripeExclusive(const Stripe& s) const {
  std::unique_lock<std::shared_mutex> lock(s.mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    s.contentions.fetch_add(1, std::memory_order_relaxed);
    stats::Add(stats::Counter::kLockContentions);
    lock.lock();
  }
  s.acquisitions.fetch_add(1, std::memory_order_relaxed);
  return lock;
}

std::vector<Pager::StripeLockStat> Pager::TopContendedStripes(size_t n) const {
  std::vector<StripeLockStat> all;
  for (size_t i = 0; i < stripe_count_; i++) {
    uint64_t c = stripes_[i].contentions.load(std::memory_order_relaxed);
    if (c == 0) {
      continue;
    }
    all.push_back({i, stripes_[i].acquisitions.load(std::memory_order_relaxed), c});
  }
  std::sort(all.begin(), all.end(),
            [](const StripeLockStat& a, const StripeLockStat& b) {
              return a.contentions != b.contentions ? a.contentions > b.contentions
                                                    : a.stripe < b.stripe;
            });
  if (all.size() > n) {
    all.resize(n);
  }
  return all;
}

uint64_t Pager::stripe_lock_acquisitions() const {
  uint64_t n = 0;
  for (size_t i = 0; i < stripe_count_; i++) {
    n += stripes_[i].acquisitions.load(std::memory_order_relaxed);
  }
  return n;
}

uint64_t Pager::stripe_lock_contentions() const {
  uint64_t n = 0;
  for (size_t i = 0; i < stripe_count_; i++) {
    n += stripes_[i].contentions.load(std::memory_order_relaxed);
  }
  return n;
}

Result<PageRef> Pager::Get(uint64_t offset) {
  if (offset % kPageSize != 0) {
    return Status::InvalidArgument("unaligned page offset " + std::to_string(offset));
  }
  Stripe& s = StripeFor(offset);
  {
    // Hit path: shared stripe lock + reference bit — no list maintenance, so
    // concurrent readers never serialize. Deliberately not histogrammed: only
    // misses pay a latency worth attributing, and keeping the hit path at one
    // counter bump is what lets the instrumentation stay on in Release.
    std::shared_lock<std::shared_mutex> lock = LockStripeShared(s);
    auto it = s.map.find(offset);
    if (it != s.map.end()) {
      stats::Add(stats::Counter::kPagerHits);
      it->second->Touch();
      return it->second;
    }
  }
  // Miss: read the device BEFORE taking the stripe exclusively — no device IO under
  // stripe locks (and so no lock held across a retry backoff). A racing miss on the
  // same offset wins harmlessly (we drop our copy).
  stats::Add(stats::Counter::kPageReads);
  metrics::ScopedLatency latency(metrics::Hist::kPageRead);
  trace::SpanScope span("page_read");
  std::string buf;
  Status read = retry_.RunWithRetry([&] { return device_->Read(offset, kPageSize, &buf); });
  if (!read.ok()) {
    if (health_ != nullptr && retry_.IsTransient(read)) {
      health_->Escalate(HealthState::kDegraded,
                        "read fault persisted past retry at offset " + std::to_string(offset));
    }
    return read;
  }
  if (checksums_ != nullptr) {
    Status verify = checksums_->Verify(offset, Slice(buf));
    if (!verify.ok()) {
      if (health_ != nullptr) {
        health_->Escalate(HealthState::kDegraded, verify.message());
      }
      return verify;
    }
  }
  std::vector<Writeback> writeback;
  PageRef page;
  {
    std::unique_lock<std::shared_mutex> lock = LockStripeExclusive(s);
    auto it = s.map.find(offset);
    if (it != s.map.end()) {
      // Raced with another miss on the same page.
      stats::Add(stats::Counter::kPagerHits);
      it->second->Touch();
      return it->second;
    }
    page = std::make_shared<Page>(offset, &dirty_count_);
    memcpy(page->data(), buf.data(), kPageSize);
    EvictLocked(s, &writeback);
    s.map.emplace(offset, page);
    PushRingLocked(s, offset);
  }
  HFAD_RETURN_IF_ERROR(FlushWriteback(s, &writeback));
  return page;
}

PageRef Pager::Peek(uint64_t offset) const {
  if (offset % kPageSize != 0) {
    return nullptr;
  }
  const Stripe& s = StripeFor(offset);
  std::shared_lock<std::shared_mutex> lock = LockStripeShared(s);
  auto it = s.map.find(offset);
  return it != s.map.end() ? it->second : nullptr;
}

Result<PageRef> Pager::GetZeroed(uint64_t offset) {
  if (offset % kPageSize != 0) {
    return Status::InvalidArgument("unaligned page offset " + std::to_string(offset));
  }
  Stripe& s = StripeFor(offset);
  std::vector<Writeback> writeback;
  PageRef page;
  {
    std::unique_lock<std::shared_mutex> lock = LockStripeExclusive(s);
    auto it = s.map.find(offset);
    if (it != s.map.end()) {
      // Reuse the cached buffer but reset the contents.
      memset(it->second->data(), 0, kPageSize);
      it->second->MarkDirty();
      it->second->Touch();
      return it->second;
    }
    page = std::make_shared<Page>(offset, &dirty_count_);
    page->MarkDirty();
    EvictLocked(s, &writeback);
    s.map.emplace(offset, page);
    PushRingLocked(s, offset);
  }
  HFAD_RETURN_IF_ERROR(FlushWriteback(s, &writeback));
  return page;
}

Status Pager::InstallClean(uint64_t offset, Slice bytes) {
  auto page = std::make_shared<Page>(offset, &dirty_count_);  // Zero-filled.
  memcpy(page->data(), bytes.data(), bytes.size());
  Stripe& s = StripeFor(offset);
  std::vector<Writeback> writeback;
  {
    std::unique_lock<std::shared_mutex> lock = LockStripeExclusive(s);
    auto it = s.map.find(offset);
    if (it != s.map.end()) {
      // Its ring entry stays; a holder of the old buffer keeps a detached copy.
      it->second->ClearDirty();
      it->second = std::move(page);
      return Status::Ok();
    }
    EvictLocked(s, &writeback);
    s.map.emplace(offset, std::move(page));
    PushRingLocked(s, offset);
  }
  return FlushWriteback(s, &writeback);
}

void Pager::PushRingLocked(Stripe& s, uint64_t offset) {
  // The sweep only runs at capacity, so under it a stripe whose pages keep being dropped
  // and installed again would grow its ring without bound. Once stale or repeated
  // entries could outnumber the live pages, rebuild the ring from the live ones, each at
  // its latest position: O(1) per push, amortized.
  if (s.ring.size() >= 2 * std::max(s.map.size(), stripe_capacity_)) {
    std::unordered_set<uint64_t> seen;
    std::deque<uint64_t> live;
    for (auto it = s.ring.rbegin(); it != s.ring.rend(); ++it) {
      if (s.map.count(*it) != 0 && seen.insert(*it).second) {
        live.push_front(*it);
      }
    }
    s.ring.swap(live);
  }
  s.ring.push_back(offset);
}

void Pager::EvictLocked(Stripe& s, std::vector<Writeback>* writeback) {
  if (s.map.size() < stripe_capacity_) {
    return;
  }
  // Second-chance sweep, clean victims first. A page still referenced outside the cache
  // (use_count > 1) must not be evicted: the holder may mutate it after eviction and
  // those mutations would be lost. Dirty victims are not written here — device IO never
  // happens under a stripe lock. Instead their images are snapshotted for the caller's
  // batched write-back (FlushWriteback) and the pages stay resident; parking them on a
  // side list keeps this sweep from re-snapshotting the same page. If everything is
  // pinned/recently-used/no-steal-dirty, the sweep budget runs out and the stripe
  // temporarily overflows, which is safe — capacity is a target, not a hard bound.
  std::vector<uint64_t> parked;
  size_t budget = 2 * s.ring.size() + 4;
  while (s.map.size() >= stripe_capacity_ && budget-- > 0 && !s.ring.empty()) {
    uint64_t victim = s.ring.front();
    s.ring.pop_front();
    auto it = s.map.find(victim);
    if (it == s.map.end()) {
      continue;  // Stale ring entry (Invalidate'd page).
    }
    PageRef& page = it->second;
    if (page.use_count() > 1) {
      s.ring.push_back(victim);  // Pinned.
      continue;
    }
    if (page->referenced()) {
      page->ClearReferenced();  // Second chance.
      s.ring.push_back(victim);
      continue;
    }
    if (page->dirty()) {
      if (!no_steal_ && writeback != nullptr) {
        // Epoch + image snapshot under the lock (use_count == 1, so nobody is mutating
        // the buffer right now); the write itself happens after the lock drops. The
        // held PageRef pins the victim against rival sweeps until FlushWriteback runs.
        writeback->push_back(
            Writeback{page, page->epoch(), std::string(page->cdata(), kPageSize)});
      }
      parked.push_back(victim);  // No-steal: must not reach the device before checkpoint.
      continue;
    }
    s.map.erase(it);
  }
  for (uint64_t offset : parked) {
    s.ring.push_back(offset);
  }
}

Status Pager::FlushWriteback(Stripe& s, std::vector<Writeback>* writeback) {
  if (writeback->empty()) {
    return Status::Ok();
  }
  // Exclude a concurrent Flush/CollectDirty snapshot without blocking: if one is
  // running (or our own caller already holds the mutation lock and a writer is
  // queued), skip the device IO entirely — the snapshot persists these pages itself,
  // or a later sweep simply retries. Blocking here could deadlock against a caller's
  // own SharedMutationHold, so try_to_lock is load-bearing.
  std::shared_lock<std::shared_mutex> snapshot_guard(flush_mu_, std::try_to_lock);
  if (snapshot_guard.owns_lock()) {
    stats::Add(stats::Counter::kPageWrites, writeback->size());
    Status wrote = retry_.RunWithRetry([&] {
      std::vector<WriteExtent> extents;
      extents.reserve(writeback->size());
      for (const Writeback& w : *writeback) {
        extents.push_back(WriteExtent{w.page->offset(), Slice(w.image)});
      }
      return device_->WriteBatch(std::move(extents));
    });
    if (!wrote.ok()) {
      stats::Add(stats::Counter::kPagerWritebackErrors);
      return wrote;  // The victims stay dirty; a later sweep or Flush rewrites them.
    }
    if (checksums_ != nullptr) {
      // Stamp the snapshotted images unconditionally: the device now holds exactly
      // these bytes even for pages re-dirtied since the snapshot (their newer content
      // gets written — and restamped — by a later sweep or Flush).
      for (const Writeback& w : *writeback) {
        checksums_->Stamp(w.page->offset(), Slice(w.image));
      }
    }
    std::unique_lock<std::shared_mutex> lock = LockStripeExclusive(s);
    for (const Writeback& w : *writeback) {
      auto it = s.map.find(w.page->offset());
      if (it == s.map.end() || it->second != w.page) {
        continue;  // Invalidated (and possibly replaced) mid-IO; nothing to clean.
      }
      // use_count == 2 is exactly {map, this Writeback}: nobody else can have mutated
      // the buffer after the epoch check below.
      if (w.page.use_count() > 2 || w.page->epoch() != w.epoch) {
        continue;  // Pinned or re-dirtied since the snapshot: stays dirty, written later.
      }
      w.page->ClearDirty();
      if (s.map.size() >= stripe_capacity_ && !w.page->referenced()) {
        s.map.erase(it);  // The ring entry goes stale; the sweep skips it.
      }
    }
  }
  writeback->clear();  // Drop the pins.
  return Status::Ok();
}

Status Pager::Flush() {
  // Exclude in-flight multi-page structure mutations (see SharedMutationHold) so the
  // write-back is a consistent snapshot. Content stability while we write without the
  // stripe locks comes from the same exclusion (plus volume_mu_ at the OSD layer).
  std::unique_lock<std::shared_mutex> mutation_barrier(flush_mu_);
  std::vector<PageRef> dirty;
  for (size_t i = 0; i < stripe_count_; i++) {
    Stripe& s = stripes_[i];
    std::shared_lock<std::shared_mutex> lock = LockStripeShared(s);
    for (auto& [offset, page] : s.map) {
      if (page->dirty()) {
        dirty.push_back(page);
      }
    }
  }
  if (!dirty.empty()) {
    stats::Add(stats::Counter::kPageWrites, dirty.size());
    Status wrote = retry_.RunWithRetry([&]() -> Status {
      std::vector<WriteExtent> extents;
      extents.reserve(dirty.size());
      for (const PageRef& page : dirty) {
        extents.push_back(WriteExtent{page->offset(), Slice(page->cdata(), kPageSize)});
      }
      return device_->WriteBatch(std::move(extents));
    });
    HFAD_RETURN_IF_ERROR(wrote);
    for (const PageRef& page : dirty) {
      if (checksums_ != nullptr) {
        // Safe to stamp from the live buffer: flush_mu_ is held exclusive, so no
        // mutator can change page content between the device write and this stamp.
        checksums_->Stamp(page->offset(), Slice(page->cdata(), kPageSize));
      }
      page->ClearDirty();
    }
  }
  return retry_.RunWithRetry([&] { return device_->Sync(); });
}

void Pager::CollectDirty(std::vector<std::pair<uint64_t, std::string>>* out) const {
  std::unique_lock<std::shared_mutex> mutation_barrier(flush_mu_);
  std::vector<PageRef> dirty;
  for (size_t i = 0; i < stripe_count_; i++) {
    const Stripe& s = stripes_[i];
    std::shared_lock<std::shared_mutex> lock = LockStripeShared(s);
    for (const auto& [offset, page] : s.map) {
      if (page->dirty()) {
        dirty.push_back(page);
      }
    }
  }
  // The 4-KiB image copies happen outside the stripe locks; the mutation barrier (and
  // volume_mu_ at the OSD layer) keeps the buffers stable meanwhile.
  out->reserve(out->size() + dirty.size());
  for (const PageRef& page : dirty) {
    out->emplace_back(page->offset(), std::string(page->cdata(), kPageSize));
  }
}

bool Pager::CopyResident(uint64_t offset, size_t size, std::string* out) const {
  out->clear();
  for (uint64_t pos = offset, end = offset + size; pos < end;) {
    const uint64_t page = pos / kPageSize * kPageSize;
    const size_t n = static_cast<size_t>(std::min(end, page + kPageSize) - pos);
    const Stripe& s = StripeFor(page);
    std::shared_lock<std::shared_mutex> lock = LockStripeShared(s);
    auto it = s.map.find(page);
    if (it == s.map.end()) {
      return false;
    }
    // Sized at the first hit, so a miss there leaves the buffer to the device read,
    // which assigns it whole; a no-op after that.
    out->resize(size);
    it->second->Touch();
    memcpy(out->data() + (pos - offset), it->second->cdata() + (pos - page), n);
    pos += n;
  }
  return true;
}

Status Pager::ReadRaw(uint64_t offset, size_t size, std::string* out) const {
  if (CopyResident(offset, size, out)) {
    stats::Add(stats::Counter::kRawCacheHits);
    return Status::Ok();
  }
  stats::Add(stats::Counter::kRawCacheMisses);
  // Read the page cover [floor(offset), ceil(offset + size)) in one device call, so
  // every page the range touches can be verified whole — a bit flip in the unrequested
  // part of a boundary page still fails the read.
  const uint64_t first = offset / kPageSize * kPageSize;
  const uint64_t end = (offset + size + kPageSize - 1) / kPageSize * kPageSize;
  Status read = retry_.RunWithRetry(
      [&] { return device_->Read(first, static_cast<size_t>(end - first), out); });
  if (!read.ok()) {
    if (health_ != nullptr && retry_.IsTransient(read)) {
      health_->Escalate(HealthState::kDegraded,
                        "raw read fault persisted past retry at offset " +
                            std::to_string(offset));
    }
    return read;
  }
  if (checksums_ != nullptr) {
    for (uint64_t page = first; page < end; page += kPageSize) {
      Status verify = checksums_->Verify(page, Slice(out->data() + (page - first), kPageSize));
      if (!verify.ok()) {
        if (health_ != nullptr) {
          health_->Escalate(HealthState::kDegraded, verify.message());
        }
        return verify;
      }
    }
  }
  out->erase(0, static_cast<size_t>(offset - first));
  out->resize(size);
  return Status::Ok();
}

Status Pager::WriteRaw(uint64_t offset, Slice data) {
  InvalidateRange(offset, data.size());
  Status wrote = retry_.RunWithRetry([&] { return device_->Write(offset, data); });
  if (!wrote.ok() || checksums_ == nullptr || data.empty()) {
    return wrote;
  }
  // Keep the CRC table in step with the raw write: fully covered pages are stamped
  // straight from the payload; partially covered head/tail pages are read back (the
  // device now holds the merged content — raw ranges belong to exactly one extent
  // owner, so nothing races the read-back) and stamped whole.
  uint64_t first_page = offset / kPageSize * kPageSize;
  uint64_t end = offset + data.size();
  for (uint64_t page = first_page; page < end; page += kPageSize) {
    if (page >= offset && page + kPageSize <= end) {
      checksums_->Stamp(page, Slice(data.data() + (page - offset), kPageSize));
      continue;
    }
    stats::Add(stats::Counter::kRawWriteReadbacks);
    std::string merged;
    Status read =
        retry_.RunWithRetry([&] { return device_->Read(page, kPageSize, &merged); });
    if (read.ok()) {
      checksums_->Stamp(page, Slice(merged));
    } else {
      // Unverifiable now. The scrubber skips unstamped pages, so the page stays
      // unverified until a later write stamps it.
      checksums_->Invalidate(page);
    }
  }
  return Status::Ok();
}

Status Pager::WriteFresh(uint64_t offset, Slice data) {
  if (offset % kPageSize != 0) {
    return Status::InvalidArgument("unaligned fresh write at " + std::to_string(offset));
  }
  Status wrote = retry_.RunWithRetry([&] { return device_->Write(offset, data); });
  if (!wrote.ok()) {
    InvalidateRange(offset, data.size());
    return wrote;
  }
  for (size_t done = 0; checksums_ != nullptr && done < data.size(); done += kPageSize) {
    checksums_->Stamp(offset + done,
                      Slice(data.data() + done, std::min(kPageSize, data.size() - done)));
  }
  // Every page is stamped before any is installed: a failed install (an eviction's
  // write-back of another page) leaves the rest uncached, which is always safe.
  for (size_t done = 0; done < data.size(); done += kPageSize) {
    HFAD_RETURN_IF_ERROR(InstallClean(
        offset + done, Slice(data.data() + done, std::min(kPageSize, data.size() - done))));
  }
  return Status::Ok();
}

void Pager::InvalidateRange(uint64_t offset, uint64_t length) {
  for (uint64_t page = offset / kPageSize * kPageSize; page < offset + length;
       page += kPageSize) {
    Invalidate(page);
  }
}

void Pager::Invalidate(uint64_t offset) {
  Stripe& s = StripeFor(offset);
  std::unique_lock<std::shared_mutex> lock = LockStripeExclusive(s);
  auto it = s.map.find(offset);
  if (it != s.map.end()) {
    it->second->ClearDirty();  // Discarded, not deferred: keep the dirty count honest.
    s.map.erase(it);           // The ring entry goes stale; the sweep skips it.
  }
}

Status Pager::DropCacheForTesting() {
  std::unique_lock<std::shared_mutex> mutation_barrier(flush_mu_);
  std::vector<PageRef> dirty;
  for (size_t i = 0; i < stripe_count_; i++) {
    Stripe& s = stripes_[i];
    std::shared_lock<std::shared_mutex> lock = LockStripeShared(s);
    for (auto& [offset, page] : s.map) {
      if (page->dirty()) {
        dirty.push_back(page);
      }
    }
  }
  if (!dirty.empty()) {
    std::vector<WriteExtent> extents;
    extents.reserve(dirty.size());
    for (const PageRef& page : dirty) {
      extents.push_back(WriteExtent{page->offset(), Slice(page->cdata(), kPageSize)});
    }
    HFAD_RETURN_IF_ERROR(device_->WriteBatch(std::move(extents)));
    for (const PageRef& page : dirty) {
      if (checksums_ != nullptr) {
        checksums_->Stamp(page->offset(), Slice(page->cdata(), kPageSize));
      }
      page->ClearDirty();
    }
  }
  for (size_t i = 0; i < stripe_count_; i++) {
    Stripe& s = stripes_[i];
    std::unique_lock<std::shared_mutex> lock = LockStripeExclusive(s);
    s.map.clear();
    s.ring.clear();
  }
  return Status::Ok();
}

size_t Pager::cached_pages() const {
  size_t n = 0;
  for (size_t i = 0; i < stripe_count_; i++) {
    std::shared_lock<std::shared_mutex> lock = LockStripeShared(stripes_[i]);
    n += stripes_[i].map.size();
  }
  return n;
}

}  // namespace hfad
